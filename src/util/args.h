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

  // Declare flags before reading; get_* throws on undeclared names.
  std::string get_str(const std::string& name, const std::string& def) const;
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;
  bool get_flag(const std::string& name) const;  // present -> true

  // Returns names the user passed that were never queried (for warnings).
  std::set<std::string> unused() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> used_;
};

// The usage gates every CLI tool runs. parse_args reads argv; a malformed
// argument (a positional one, say) prints "<tool>: <reason>" to stderr
// and returns nullopt. reject_unknown_flags, run once the tool has read
// every flag it knows, prints "<tool>: unknown flag --<name>" for the
// first flag nothing read and returns false. Either way the tool exits 2,
// the usage-error status, before doing any work.
std::optional<Args> parse_args(const char* tool, int argc, char** argv);
bool reject_unknown_flags(const char* tool, const Args& args);

// Shared --threads=N handling for every CLI tool: pins the global thread
// pool when the flag was passed (0 = hardware concurrency), otherwise
// leaves the VSQ_THREADS environment fallback in effect. Returns false
// after printing a diagnostic to stderr when the value is not an integer
// in [0, ThreadPool::kMaxThreads] — the caller should exit non-zero.
bool apply_threads_flag(const Args& args);

}  // namespace vsq
