// Small command-line flag parser for examples and bench binaries.
// Supports --key=value and --flag forms; unknown flags are errors so
// typos fail loudly.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

namespace vsq {

class Args {
 public:
  Args(int argc, char** argv);

  // Each get_* marks the flag as read and returns `def` when it is absent.
  // get_int and get_double parse the whole value; get_parsed runs `parse`
  // (which throws on bad input, as MacConfig::parse does) on it. A
  // malformed value (--vector=abc, --vector=12x) is recorded for
  // reject_bad_flags and `def` returned, so a tool reads all its flags and
  // then fails once.
  std::string get_str(const std::string& name, const std::string& def) const;
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;
  template <class T, class Parse>
  T get_parsed(const std::string& name, T def, Parse parse) const;
  bool get_flag(const std::string& name) const;  // present -> true

  // Returns names the user passed that were never queried (for warnings).
  std::set<std::string> unused() const;
  // "--name=value: reason" for the first malformed value read, else "".
  const std::string& malformed() const { return malformed_; }

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> used_;
  mutable std::string malformed_;
};

template <class T, class Parse>
T Args::get_parsed(const std::string& name, T def, Parse parse) const {
  used_.insert(name);
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  try {
    return parse(it->second);
  } catch (const std::exception& e) {
    if (malformed_.empty()) malformed_ = "--" + name + "=" + it->second + ": " + e.what();
    return def;
  }
}

// The usage gates every CLI tool runs. parse_args reads argv and the
// VSQ_ISA cap (kernels/isa.h); a malformed argument (a positional one,
// say) or an unknown VSQ_ISA value prints "<tool>: <reason>" to stderr
// and returns nullopt. reject_bad_flags, run once the tool has read every
// flag it knows, prints "<tool>: <flag>: <reason>" for the first
// malformed value, or else "<tool>: unknown flag --<name>" for the first
// flag nothing read, and returns false. Either way the tool exits 2, the
// usage-error status, before doing any work.
std::optional<Args> parse_args(const char* tool, int argc, char** argv);
bool reject_bad_flags(const char* tool, const Args& args);

// Shared --threads=N handling for every CLI tool: pins the global thread
// pool when the flag was passed (0 = hardware concurrency), otherwise
// leaves the VSQ_THREADS environment fallback in effect. Returns false
// after printing a diagnostic to stderr when the value is not an integer
// in [0, ThreadPool::kMaxThreads] — the caller should exit non-zero.
bool apply_threads_flag(const Args& args);

}  // namespace vsq
