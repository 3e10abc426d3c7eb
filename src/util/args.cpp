#include "util/args.h"

#include <charconv>
#include <iostream>
#include <stdexcept>

#include "kernels/isa.h"
#include "util/thread_pool.h"

namespace vsq {

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("Args: expected --key[=value], got " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg] = "1";
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

std::string Args::get_str(const std::string& name, const std::string& def) const {
  used_.insert(name);
  const auto it = kv_.find(name);
  return it == kv_.end() ? def : it->second;
}

namespace {

// The whole of v as a T, or std::invalid_argument.
template <class T>
T parse_number(const std::string& v, const char* what) {
  T out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size()) throw std::invalid_argument(what);
  return out;
}

}  // namespace

int Args::get_int(const std::string& name, int def) const {
  return get_parsed(name, def, [](const std::string& v) {
    return parse_number<int>(v, "expected an integer");
  });
}

double Args::get_double(const std::string& name, double def) const {
  return get_parsed(name, def, [](const std::string& v) {
    return parse_number<double>(v, "expected a number");
  });
}

bool Args::get_flag(const std::string& name) const {
  used_.insert(name);
  return kv_.count(name) > 0;
}

std::optional<Args> parse_args(const char* tool, int argc, char** argv) {
  try {
    Args args(argc, argv);
    (void)isa::env_cap();  // throws on an unknown VSQ_ISA value
    return args;
  } catch (const std::invalid_argument& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

bool reject_bad_flags(const char* tool, const Args& args) {
  if (!args.malformed().empty()) {
    std::cerr << tool << ": " << args.malformed() << "\n";
    return false;
  }
  const std::set<std::string> unknown = args.unused();
  if (unknown.empty()) return true;
  std::cerr << tool << ": unknown flag --" << *unknown.begin() << "\n";
  return false;
}

bool apply_threads_flag(const Args& args) {
  // Pin the pool only when --threads was actually passed, so the
  // VSQ_THREADS environment fallback keeps working otherwise.
  if (args.get_str("threads", "").empty()) return true;
  const int threads = args.get_int("threads", -1);  // malformed -> -1, rejected below
  if (threads < 0 || static_cast<std::size_t>(threads) > ThreadPool::kMaxThreads) {
    std::cerr << "--threads must be in [0, " << ThreadPool::kMaxThreads
              << "] (0 = hardware concurrency)\n";
    return false;
  }
  ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
  return true;
}

std::set<std::string> Args::unused() const {
  std::set<std::string> out;
  for (const auto& [k, _] : kv_) {
    if (!used_.count(k)) out.insert(k);
  }
  return out;
}

}  // namespace vsq
