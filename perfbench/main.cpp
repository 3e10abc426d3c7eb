// vsq_perfbench — the repository's serving benchmark. One process links the
// vsq library, saves the deterministic builtin packages to .vsqa archives,
// and serves them from those archives under one named workload:
//
//   vsq_perfbench --workload mlp_closed|bert_batch|net_mixed --seed N
//                 --seconds S --trace 0|1 --workdir DIR [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics (throughput, latency p50/p90,
// set-up time, peak RSS). --trace 1 splits the time between a plain and a
// traced phase, replays the runner and every primitive directly, and prints the
// per-layer metrics instead. Every timed request must be answered OK, and
// every OK response is audited bit-for-bit against a sequential reference
// runner; a failed request or a mismatch exits 1. The last stdout line is
// the JSON result. NOTES.md documents the metrics.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.h"
#include "exp/ptq.h"
#include "kernels/isa.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;

struct Builtin {
  const char* name;
  const char* label;
};
// In this order each workload's primary model (models[0]) comes first.
constexpr Builtin kBuiltins[] = {{"tiny", "mlp"}, {"tiny_conv", "conv"}, {"tiny_bert", "bert"}};
constexpr int kPool = 256;         // distinct inputs per model
constexpr int kSetups = 21;        // set-up repetitions
constexpr int kSetupsBefore = 11;  // of them, run before the timed phases
// End-to-end figures are read at the better decile: the throughput at 0.9
// of the per-slice rates, a latency quantile at 0.1 of its per-slice values
// and the set-up time at 0.1 of the set-ups. NOTES.md says why.
constexpr double kBetterDecile = 0.1;

std::vector<std::string> served_by(const std::string& workload) {
  if (workload == "mlp_closed") return {"tiny"};
  if (workload == "bert_batch") return {"tiny_bert"};
  return {"tiny", "tiny_conv"};
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  const std::string type = VSQ_PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

std::string env_stamp(const Options& opt) {
  const char* cap = std::getenv("VSQ_ISA");
  const char* threads = std::getenv("VSQ_THREADS");
  std::ostringstream os;
  os << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
     << ", \"seconds\": " << opt.seconds << ", \"isa\": \"" << vsq::isa::summary()
     << "\", \"vsq_isa\": \"" << (cap ? cap : "") << "\", \"vsq_threads\": \""
     << (threads ? threads : "") << "\", \"pool_threads\": "
     << vsq::ThreadPool::global().concurrency()
     << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"compiler\": \"" << VSQ_PERFBENCH_COMPILER << "\", \"build_type\": \""
     << VSQ_PERFBENCH_BUILD_TYPE << "\", \"optimized\": "
     << (optimized_build() ? "true" : "false");
  if (opt.workload == "net_mixed") os << ", \"net_rate\": " << net_mixed_rate();
  os << "}";
  return os.str();
}

// The seeded input pool of one model: normal MLP rows, uniform [-2, 2)
// image rows (the CNN's calibration range), and token rows with a fixed
// short-heavy length mix: about 3/4 of 1-8 tokens, 1/4 of 25-32 tokens.
ServedModel make_served(const Builtin& b, const vsq::QuantizedModelPackage& pkg,
                        const std::string& archive, std::uint64_t seed, std::uint64_t stream) {
  const vsq::QuantizedModelRunner runner(pkg);
  ServedModel m;
  m.name = b.name;
  m.label = b.label;
  m.archive = archive;
  vsq::Rng rng = vsq::Rng(seed).split(stream);
  std::vector<std::int64_t> expected;
  for (int i = 0; i < kPool; ++i) {
    vsq::Tensor t;
    if (runner.seq()) {
      const bool short_row = rng.uniform() < 0.75;
      const auto len = static_cast<std::int64_t>(short_row ? 1 + rng.uniform_u64(8)
                                                          : 25 + rng.uniform_u64(8));
      t = vsq::Tensor(vsq::Shape{std::min(len, runner.max_seq())});
      for (auto& v : t.span()) {
        v = static_cast<float>(rng.uniform_u64(static_cast<std::uint64_t>(runner.vocab())));
      }
      expected.push_back(t.numel() * runner.out_per_token());
    } else {
      t = vsq::Tensor(vsq::Shape{1, runner.in_features()});
      for (auto& v : t.span()) {
        v = static_cast<float>(runner.spatial() ? rng.uniform(-2.0, 2.0) : rng.normal());
      }
      expected.push_back(runner.out_features());
    }
    m.rows.push_back(t.to_vector());
    m.inputs.push_back(std::move(t));
  }
  m.ledger = std::make_unique<Ledger>(std::move(expected), kMaxClients + 1);
  return m;
}

std::vector<std::uint64_t> batch_hist_delta(const vsq::ServeStatsSnapshot& a,
                                            const vsq::ServeStatsSnapshot& b) {
  std::vector<std::uint64_t> d(b.batch_hist.size(), 0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = b.batch_hist[i] - (i < a.batch_hist.size() ? a.batch_hist[i] : 0);
  }
  return d;
}

// Batch-weighted median batch size over a phase (1 when nothing ran).
int median_batch(const std::vector<std::uint64_t>& hist) {
  std::uint64_t total = 0;
  for (const auto c : hist) total += c;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    cum += hist[i];
    if (total > 0 && 2 * cum >= total) return static_cast<int>(i);
  }
  return 1;
}

bool parse(int argc, char** argv, Options* opt) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return false;
    a = a.substr(2);
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      return false;
    }
  }
  const auto get = [&](const std::string& k, const std::string& dflt) {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  };
  try {
    opt->workload = get("workload", "");
    opt->seed = std::stoull(get("seed", "1"));
    opt->seconds = std::stod(get("seconds", "10"));
    opt->trace = get("trace", "0") == "1";
    opt->workdir = get("workdir", "");
    opt->trace_dir = get("trace-dir", "");
  } catch (const std::exception&) {
    return false;
  }
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), opt->workload) != names.end() &&
         opt->seconds > 0.0 && !opt->workdir.empty();
}

int run(const Options& opt) {
  // ---- Archives and seeded inputs (before any clock) ----
  std::filesystem::create_directories(opt.workdir);
  const std::vector<std::string> served = served_by(opt.workload);
  std::vector<ServedModel> models;
  std::map<std::string, vsq::QuantizedModelPackage> unserved;
  for (std::size_t k = 0; k < std::size(kBuiltins); ++k) {
    const Builtin& b = kBuiltins[k];
    vsq::QuantizedModelPackage pkg = vsq::builtin_serving_package(b.name);
    const std::string archive = opt.workdir + "/" + b.name + ".vsqa";
    pkg.save(archive);
    const auto pos = std::find(served.begin(), served.end(), b.name);
    if (pos == served.end()) {
      unserved.emplace(b.label, std::move(pkg));
      continue;
    }
    models.push_back(make_served(b, pkg, archive, opt.seed, k + 1));
  }

  Tracer tracer;
  Tracer* tp = opt.trace ? &tracer : nullptr;
  const std::unique_ptr<Workload> wl = make_workload(opt, std::move(models), tp);
  Tracer::Log* main_log = tp ? tracer.thread_log() : nullptr;

  // ---- Set-up, repeated; the last one serves the timed phases. The rest
  // of the set-ups run after the phases, so that one burst of host load
  // cannot slow them all. ----
  std::vector<double> setup_s, load_ms;
  SetupStats last;
  for (int r = 0; r < kSetupsBefore; ++r) {
    last = wl->setup(main_log);
    setup_s.push_back(last.total_s);
    load_ms.push_back(last.load_ms);
  }

  // ---- Timed phases (a traced run splits its time between a plain and a
  // traced phase, so it lasts as long as a plain run) ----
  const double phase_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const PhaseStats plain = wl->run(phase_s, 0, nullptr);
  PhaseStats all = plain;
  Metrics out;
  if (opt.trace) {
    const std::vector<vsq::ServeStatsSnapshot> before = wl->model_stats();
    const PhaseStats traced = wl->run(phase_s, 1, &tracer);
    const std::vector<vsq::ServeStatsSnapshot> after = wl->model_stats();
    const vsq::ServeStatsSnapshot window = wl->primary_window();
    const NetCounters net = wl->net_counters();
    wl->teardown();  // the replay runs on an otherwise idle process
    all.attempted += traced.attempted;
    all.ok += traced.ok;
    all.failed += traced.failed;
    all.mismatched += traced.mismatched;
    all.retried += traced.retried;
    Counters steady = plain.steady;
    steady += traced.steady;

    out.set("archive.load_ms", median(load_ms), "ms");
    out.set("kernels.resolutions_setup", static_cast<double>(last.counters.resolutions), "count");
    out.set("kernels.resolutions_steady", static_cast<double>(steady.resolutions), "count");
    out.set("quant.panels_packed_steady", static_cast<double>(steady.packs), "count");
    out.set("quant.unpacked_steady", static_cast<double>(steady.unpacked), "count");

    // Replay every served model at the median batch it formed.
    double fwd_at_mean_us = 0.0, mean_batch = 0.0, packed_bytes = 0.0;
    double shed = 0, errors = 0, expired = 0, restarts = 0, mixed = 0;
    for (std::size_t i = 0; i < wl->models.size(); ++i) {
      const vsq::ServeStatsSnapshot& a = before[i];
      const vsq::ServeStatsSnapshot& b = after[i];
      const double batches = static_cast<double>(b.batches - a.batches);
      const double mb = batches > 0 ? static_cast<double>(b.requests - a.requests) / batches : 1.0;
      const bool primary = i == 0;
      const double fwd = replay_model(wl->models[i], median_batch(batch_hist_delta(a, b)),
                                      primary, static_cast<int>(std::lround(mb)), tracer, out);
      if (primary) {
        fwd_at_mean_us = fwd;
        mean_batch = mb;
      }
      packed_bytes += static_cast<double>(b.packed_weight_bytes);
      shed += static_cast<double>(b.shed - a.shed);
      errors += static_cast<double>(b.errors - a.errors);
      expired += static_cast<double>(b.deadline_expired - a.deadline_expired);
      restarts += static_cast<double>(b.worker_restarts - a.worker_restarts);
      mixed += static_cast<double>(b.mixed_bucket_batches - a.mixed_bucket_batches);
    }
    for (const auto& [label, pkg] : unserved) zero_model_metrics(label, pkg, out);
    out.set("quant.packed_weight_bytes", packed_bytes, "bytes");

    out.set("serve.submit_us_p50", tracer.durations("serve.submit").quantile_us(0.5), "us");
    out.set("serve.session_p50_us", window.p50_us, "us");
    out.set("serve.session_p99_us", window.p99_us, "us");
    out.set("serve.overhead_us_p50", window.p50_us - fwd_at_mean_us, "us");
    out.set("serve.mean_batch", mean_batch, "requests");
    out.set("serve.mixed_bucket_batches", mixed, "count");
    out.set("serve.shed", shed, "count");
    out.set("serve.errors", errors, "count");
    out.set("serve.deadline_expired", expired, "count");
    out.set("serve.worker_restarts", restarts, "count");

    const bool net_wl = opt.workload == "net_mixed";
    out.set("registry.reload_ms_p50", median(traced.reload_ms), "ms");
    out.set("registry.reload_ms_max",
            traced.reload_ms.empty()
                ? 0.0
                : *std::max_element(traced.reload_ms.begin(), traced.reload_ms.end()),
            "ms");
    out.set("registry.reloads_ok", static_cast<double>(traced.reloads_ok), "count");
    out.set("registry.reload_retries", static_cast<double>(traced.retried), "count");
    const double rtt_p50 = traced.rtt.quantile_us(0.5);
    out.set("net.rtt_p50_us", rtt_p50, "us");
    out.set("net.overhead_us_p50", net_wl ? rtt_p50 - window.p50_us : 0.0, "us");
    out.set("net.frames_ok", static_cast<double>(net.frames_ok), "count");
    out.set("net.frames_not_ok", static_cast<double>(net.frames_not_ok), "count");
    out.set("net.protocol_errors", static_cast<double>(net.protocol_errors), "count");
    out.set("net.connections_accepted", static_cast<double>(net.accepted), "count");

    out.set("gen.latency_p99_us", traced.latency.slice_quantile_us(0.99, 0.5), "us");
    out.set("gen.late_p99_us", traced.late.quantile_us(0.99), "us");
    out.set("trace.plain_rps", plain.throughput(), "1/s");
    out.set("trace.traced_rps", traced.throughput(), "1/s");
    out.set("trace.overhead_frac",
            plain.throughput() > 0 ? (plain.throughput() - traced.throughput()) / plain.throughput()
                                   : 0.0,
            "frac");
    out.set("trace.spans", static_cast<double>(tracer.spans_recorded()), "count");
    std::cout << "traced phase: " << traced.ok << " ok in " << traced.seconds << " s ("
              << traced.throughput() << " r/s vs plain " << plain.throughput()
              << " r/s); latency p50 " << traced.latency.whole().quantile_us(0.5) << " us over "
              << traced.latency.whole().count() << " samples\n";
  }
  for (int r = kSetupsBefore; r < kSetups; ++r) setup_s.push_back(wl->setup(main_log).total_s);
  wl->teardown();

  // ---- Audit (untimed): every kept response vs a sequential reference ----
  std::uint64_t bad = 0, checked = 0;
  for (const ServedModel& m : wl->models) {
    const vsq::QuantizedModelPackage ref_pkg = vsq::QuantizedModelPackage::load(m.archive);
    const vsq::QuantizedModelRunner ref(ref_pkg);
    std::uint64_t n = 0;
    bad += m.ledger->audit(ref, m.inputs, &n);
    checked += n;
  }
  // fail_frac must be 0: a run in which any timed request was not answered
  // OK (or none was) is not a valid measurement.
  const bool correct = bad == 0 && all.mismatched == 0 && all.failed == 0 && all.ok > 0;

  if (!opt.trace) {
    out.set("throughput_rps", plain.latency.slice_rate(1.0 - kBetterDecile), "1/s");
    out.set("latency_p50_us", plain.latency.slice_quantile_us(0.5, kBetterDecile), "us");
    out.set("latency_p90_us", plain.latency.slice_quantile_us(0.9, kBetterDecile), "us");
    out.set("setup_s", quantile_of(setup_s, kBetterDecile), "s");
    out.set("rss_mib", peak_rss_mib(), "MiB");
  }
  if (opt.trace && !opt.trace_dir.empty()) {
    std::filesystem::create_directories(opt.trace_dir);
    tracer.write_csv(opt.trace_dir + "/trace-" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".csv",
                     env_stamp(opt));
  }

  std::cout << "env: " << env_stamp(opt) << "\n";
  const LatencyHist whole = plain.latency.whole();
  std::cout << "plain phase: " << plain.ok << " ok, " << plain.failed << " failed of "
            << plain.attempted << " in " << plain.seconds << " s (" << plain.throughput()
            << " r/s); whole-phase latency p50 " << whole.quantile_us(0.5) << " us, p99 "
            << whole.quantile_us(0.99) << " us over " << whole.count() << " samples in "
            << SlicedLatency::kSlices
            << " slices (r/s / p50 / p90 / p99 us: " << plain.latency.summary()
            << "); fail_frac "
            << (all.attempted ? static_cast<double>(all.failed) / all.attempted : 0.0)
            << "; set-up median of " << setup_s.size() << "; steady-state deltas: "
            << plain.steady.resolutions << " dispatch resolutions, " << plain.steady.packs
            << " panel packs, " << plain.steady.unpacked << " unpacked\n";
  std::cout << "audit: " << checked << " kept responses replayed, " << bad
            << " differ from the sequential reference; " << all.mismatched
            << " responses differ from an earlier copy; " << all.failed
            << " requests not answered OK\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << all.attempted << ", \"failed\": " << all.failed << ", \"metrics\": " << out.json()
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::cerr << "usage: vsq_perfbench --workload mlp_closed|bert_batch|net_mixed --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--trace-dir DIR]\n";
    return 2;
  }
  if (!optimized_build()) {
    std::cerr << "vsq_perfbench: refusing to measure an unoptimized build ("
              << VSQ_PERFBENCH_BUILD_TYPE << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "vsq_perfbench: " << e.what() << "\n";
    return 1;
  }
}
