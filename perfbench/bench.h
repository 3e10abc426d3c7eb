// Shared pieces of the serving benchmark program: the latency histogram,
// the in-memory span recorder, the metric list printed as the result, and
// the workload interface that main.cpp drives. See NOTES.md for what each
// workload measures and why.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "quant/export.h"
#include "serve/serve_stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Client threads / connections a workload drives (<= nproc on the 4-core
// reference machine). Ledgers keep one extra slot for set-up responses.
constexpr int kMaxClients = 4;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Fixed-bucket log-linear latency histogram over nanoseconds, in the
// HdrHistogram style: exact below 256 ns, then 64 sub-buckets per power of
// two (bucket width <= 1.6% of the value) up to 2^48 ns. Memory is small
// and constant (11 KiB), histograms merge by addition, and quantiles
// interpolate inside the bucket by rank.
class LatencyHist {
 public:
  void add(std::int64_t ns);
  void merge(const LatencyHist& other);
  std::uint64_t count() const { return count_; }
  // Quantile q in [0, 1] in nanoseconds (0 when empty).
  double quantile_ns(double q) const;
  double quantile_us(double q) const { return quantile_ns(q) / 1e3; }

 private:
  static constexpr int kLinear = 256;
  static constexpr int kSub = 64;
  static constexpr int kMaxMsb = 47;
  static constexpr int kBuckets = kLinear + (kMaxMsb - 7) * kSub;
  static int index_of(std::uint64_t v);
  static void bounds_of(int idx, double* lo, double* width);

  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

// Value at fraction p in [0, 1] of a sample, linearly interpolated between
// order statistics (0 when empty).
double quantile_of(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return quantile_of(std::move(v), 0.5); }

// Latency recorded per equal time slice of a phase. Load from elsewhere on
// the machine only ever slows a slice down, and it comes in bursts, so the
// end-to-end figures are taken from the better slices (see NOTES.md).
class SlicedLatency {
 public:
  static constexpr int kSlices = 20;
  SlicedLatency(Clock::time_point start, double seconds)
      : start_(start), slice_s_(seconds / kSlices), slices_(kSlices) {}
  // A request that completed at `at` took `ns`. Times past the phase count
  // in the last slice.
  void add(Clock::time_point at, std::int64_t ns);
  void merge(const SlicedLatency& other);
  LatencyHist whole() const;
  // Across the slices, the value at fraction p of the per-slice completions
  // per second, or of the per-slice latency quantile q (us).
  double slice_rate(double p) const;
  double slice_quantile_us(double q, double p) const;
  // "rate/p50/p90/p99 ..." per slice (r/s and us), for the log.
  std::string summary() const;

 private:
  Clock::time_point start_;
  double slice_s_;
  std::vector<LatencyHist> slices_;
};

// Span recorder for the traced run. Each thread appends to its own Log
// (no locking on the hot path). Span durations also feed one histogram
// per span name, so per-layer figures cover every span even when the
// stored list is capped. Everything is written to a CSV file at exit.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;    // interned
    std::uint32_t detail = 0;  // interned, 0 = none
    std::uint64_t id = 0, parent = 0, request = 0;
    std::int64_t start_ns = 0, end_ns = 0;  // since the tracer's epoch
  };
  class Log {
   public:
    // Records one span and returns its id (usable as a parent).
    std::uint64_t record(std::uint32_t name, Clock::time_point start, Clock::time_point end,
                         std::uint64_t parent = 0, std::uint64_t request = 0,
                         std::uint32_t detail = 0);

   private:
    friend class Tracer;
    Log(Tracer* owner, std::uint32_t thread) : owner_(owner), thread_(thread) {}
    Tracer* owner_;
    std::uint32_t thread_;
    std::uint64_t seq_ = 0;  // spans recorded, stored or not
    std::vector<Span> spans_;
    std::vector<LatencyHist> by_name_;  // index = interned name
  };

  Tracer();
  // Interned names are stable ids; call before the timed phase.
  std::uint32_t intern(const std::string& s);
  // A per-thread log owned by the tracer (stable address).
  Log* thread_log();
  // Merged duration histogram of every span with this name.
  LatencyHist durations(const std::string& name) const;
  std::uint64_t spans_recorded() const;
  // Writes "<path>": a header comment line, then one CSV row per span.
  void write_csv(const std::string& path, const std::string& header) const;

  static constexpr std::size_t kKeepPerThread = 20000;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;  // guarded by mu_ for intern()
  std::vector<std::unique_ptr<Log>> logs_;
};

// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }
  // {"name": {"value": v, "unit": u}, ...} with full-precision values.
  std::string json() const;

 private:
  std::vector<Metric> items_;
};

// Process counters the steady-state invariants are stated over.
struct Counters {
  std::uint64_t resolutions = 0, packs = 0, unpacked = 0;
  static Counters now();
  Counters operator-(const Counters& o) const {
    return {resolutions - o.resolutions, packs - o.packs, unpacked - o.unpacked};
  }
  Counters& operator+=(const Counters& o) {
    resolutions += o.resolutions;
    packs += o.packs;
    unpacked += o.unpacked;
    return *this;
  }
};

// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mib();

// Per-model audit ledger. During the timed phase each client keeps the
// first response it saw for every pool entry and compares every later
// response for that entry bit-for-bit against it (a memcmp, no reference
// computation on the clock). After the phase, audit() compares every kept
// first response bit-for-bit against a sequential single-sample runner
// built independently from the model's archive. Every OK response is thus
// checked against the reference, either directly or through its first
// copy, in memory bounded by the pool size.
class Ledger {
 public:
  // expected_len[i]: output floats pool entry i must produce.
  Ledger(std::vector<std::int64_t> expected_len, int clients);
  // Client c saw `n` floats for pool entry i. False on a wrong length or
  // a response that differs from this client's earlier copy.
  bool check(int c, std::size_t i, const float* data, std::size_t n);
  // Replays each kept response through `reference` at its true length.
  // Returns the number of mismatching entries; *checked gets the count of
  // entries compared.
  std::uint64_t audit(const vsq::QuantizedModelRunner& reference,
                      const std::vector<vsq::Tensor>& inputs, std::uint64_t* checked) const;

 private:
  struct Slot {
    std::vector<float> row;
    bool seen = false;
  };
  std::vector<std::int64_t> expected_len_;
  std::vector<std::vector<Slot>> slots_;  // [client][pool entry]
};

// One model a workload serves: its archive, the seeded input pool and the
// audit ledger. `label` prefixes its per-primitive metric names.
struct ServedModel {
  std::string name;     // builtin / registry name: tiny, tiny_conv, tiny_bert
  std::string label;    // mlp, conv, bert
  std::string archive;  // .vsqa path the workload loads from
  std::vector<vsq::Tensor> inputs;       // pool: [in] rows or [L] token rows
  std::vector<std::vector<float>> rows;  // the same pool as wire rows
  std::unique_ptr<Ledger> ledger;
};

// One set-up, from archive on disk to the first OK response.
struct SetupStats {
  double total_s = 0.0;
  double load_ms = 0.0;  // QuantizedModelPackage::load, summed over models
  Counters counters;     // invariant counters moved by this set-up
};

// One timed phase.
struct PhaseStats {
  std::uint64_t attempted = 0, ok = 0, failed = 0, mismatched = 0;
  std::uint64_t retried = 0;  // net: resent after a reload raced the request
  double seconds = 0.0;
  // Client-measured latency: submit -> result in process; over the wire,
  // send (or scheduled send, when the connection was still busy) -> answer.
  SlicedLatency latency{Clock::time_point{}, 1.0};
  LatencyHist rtt;      // net: send -> answer, primary model only
  LatencyHist late;     // net open loop: actual send - scheduled send
  Counters steady;      // counter deltas, excluding the hot reloads' own work
  std::vector<double> reload_ms;
  std::uint64_t reloads_ok = 0;
  double throughput() const { return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0; }
};

struct NetCounters {
  std::uint64_t frames_ok = 0, frames_not_ok = 0, protocol_errors = 0, accepted = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;       // archives are written here
  std::string trace_dir;     // traced runs write their span CSV here
};

// A workload: models[0] is the primary model, the one the runner/serve
// per-layer metrics describe.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  // Tear down any previous set-up, then set up from the archives to the
  // first OK response of every model.
  virtual SetupStats setup(Tracer::Log* log) = 0;
  virtual PhaseStats run(double seconds, int phase, Tracer* tracer) = 0;
  // Cumulative serving stats per model (across hot reloads), in models order.
  virtual std::vector<vsq::ServeStatsSnapshot> model_stats() const = 0;
  // The live session of the primary model (its latency window).
  virtual vsq::ServeStatsSnapshot primary_window() const = 0;
  virtual NetCounters net_counters() const { return {}; }
  virtual void teardown() = 0;

  std::vector<ServedModel> models;
};

// Workload names accepted by --workload.
const std::vector<std::string>& workload_names();
// models: the workload's models, archives saved and pools filled.
// Span names are interned into `tracer` when it is non-null.
std::unique_ptr<Workload> make_workload(const Options& opt, std::vector<ServedModel> models,
                                        Tracer* tracer);
// The net_mixed open-loop rate (r/s).
double net_mixed_rate();

// Traced replay of one served model: runner build and forward times and
// each resolved primitive's execute time at the given batch. Writes the
// quant.<label>.* metrics, and for the primary model the runner.* metrics
// and quant.int_share. Returns the runner forward time (us) at `mean_batch`.
double replay_model(const ServedModel& m, int median_batch, bool primary, int mean_batch,
                    Tracer& tracer, Metrics& out);
// Zero-valued quant.<label>.* metrics for a model the workload does not serve.
void zero_model_metrics(const std::string& label, const vsq::QuantizedModelPackage& pkg,
                        Metrics& out);

}  // namespace perfbench
