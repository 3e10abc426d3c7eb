// Serving metrics: request, batch, error and shed counters, the batch-size
// histogram, throughput and a latency histogram. Recording is thread-safe
// (client threads record cache hits and sheds, the batcher worker records
// batches and errors); snapshot() takes a coherent copy for reporting.
//
// Latencies are counted in a fixed-bucket log-linear histogram, so a
// session holds the same 22 KiB whether it served ten requests or ten
// billion, its quantiles cover every request it completed, and two
// snapshots merge exactly by adding counts. ModelRegistry's quantiles
// across hot reloads are therefore those of all the traffic the name
// served, within the histogram's 1/64 bucket width.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace vsq {

// Latency histogram in nanoseconds, in the HdrHistogram layout: one bucket
// per value below 256 ns, then 64 equal sub-buckets per power of two up
// to 2^47 ns (39 h; longer latencies count in the last bucket). A bucket
// is at most 1/64 of its lower bound wide. The count, sum, min and max are
// exact.
class LatencyHistogram {
  static constexpr int kLinear = 256;
  static constexpr int kSub = 64;
  static constexpr int kMaxMsb = 47;

 public:
  static constexpr int kBuckets = kLinear + (kMaxMsb - 7) * kSub;

  void record(std::uint64_t ns);
  // Adds other's samples: the result is the histogram of both sample sets.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_ns_; }
  std::uint64_t min_ns() const { return min_ns_; }  // 0 when empty
  std::uint64_t max_ns() const { return max_ns_; }
  const std::array<std::uint64_t, kBuckets>& counts() const { return counts_; }

  // Value at fraction q in [0, 1] (clamped) of the samples: the bucket
  // holding rank q*(count-1), interpolated by rank inside that bucket and
  // clamped to [min, max]. So it is within one bucket width (1/64) of the
  // order statistic at floor(q*(count-1)), and monotone in q. 0 when
  // empty; a single sample answers every q with itself.
  double quantile_ns(double q) const;

 private:
  static int bucket_of(std::uint64_t ns);
  // Lower bound and width (ns) of bucket `idx`.
  static void bucket_bounds(int idx, double* lo, double* width);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0, sum_ns_ = 0, min_ns_ = 0, max_ns_ = 0;
};

struct ServeStatsSnapshot {
  std::uint64_t requests = 0;    // completed requests (cache hits included)
  std::uint64_t batches = 0;     // forward passes executed
  std::uint64_t cache_hits = 0;  // requests short-circuited by BlobCache
  // Requests whose batch's forward pass threw: the promise carried the
  // exception instead of a row. Failed batches still count in `batches`
  // and the batch histogram; their requests count here, never in
  // `requests`.
  std::uint64_t errors = 0;
  // Requests rejected by admission control (queue full within the
  // caller's deadline) — shed load, never enqueued, never a row.
  std::uint64_t shed = 0;
  // Requests whose client deadline had already passed when the batcher
  // popped them (or at submit): swept out of the batch and resolved as
  // shed WITHOUT executing a forward pass — wasted work eliminated, not
  // just reported. Disjoint from `shed` (those never enqueued) and from
  // `requests`/`errors` (no row, no exception from the model).
  std::uint64_t deadline_expired = 0;
  // Times the session watchdog replaced a dead or stalled batcher worker.
  std::uint64_t worker_restarts = 0;
  // Queue depth gauge sampled at snapshot time (requests admitted but not
  // yet popped by the batcher). A point-in-time reading, not a counter;
  // merge() sums it (drained sessions contribute 0).
  std::uint64_t queue_depth = 0;
  double wall_seconds = 0.0;     // first submit -> last completion
  double throughput_rps = 0.0;   // requests / wall_seconds
  // Derived from `latency`: quantiles within its bucket width, mean and
  // max exact.
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  double mean_us = 0.0, max_us = 0.0;
  double mean_batch = 0.0;                // requests per executed batch
  std::vector<std::uint64_t> batch_hist;  // index = batch size (0 unused)
  // Executed sequence batches whose rows have at least two distinct true
  // lengths (a short and a long request riding one forward pass). 0 for
  // non-sequence sessions; merge() sums it. The name is kept from the
  // retired pad-bucket batcher because perfbench reads this field and its
  // JSON key.
  std::uint64_t mixed_bucket_batches = 0;
  // Bounds of the serving window in steady-clock seconds (process-
  // relative; 0/0 when no request was ever recorded): first submit and
  // last completion. merge() spans all windows (earliest start to latest
  // end), so throughput_rps never divides by double-counted time when
  // windows overlap (an old session draining while its replacement
  // serves).
  double window_start_s = 0.0, window_end_s = 0.0;
  // Resident bytes of the session's pre-packed weight panels (sub-byte
  // packed layouts shrink this below the int16-panel footprint). A
  // property of the loaded model, not a counter: merge() takes the max,
  // never the sum.
  std::uint64_t packed_weight_bytes = 0;
  // Every completed request's latency (cache hits included).
  LatencyHistogram latency;

  // Folds in another serving window of the same model (before/after a
  // hot reload): counts and histograms add, the window spans both, and
  // every derived field (quantiles, mean, throughput, mean batch) is
  // recomputed from the merged counts.
  void merge(const ServeStatsSnapshot& other);

  // Two-row aligned table (util/Table) for terminal output.
  void print_table(std::ostream& os) const;
  // Single-line JSON object, machine-readable (vsq_serve --json-out, the
  // net server's /stats endpoint). Carries every scalar snapshot field;
  // the latency histogram is summarised by its quantiles, mean and max.
  std::string json() const;
};

class ServeStats {
 public:
  // Start of the measurement window; called on every submit, only the
  // first call sets the clock.
  void mark_start();
  // A request completed `latency_us` after submission.
  void record_request(double latency_us, bool cache_hit = false);
  // A batched forward pass over `batch_size` requests executed;
  // `mixed_lengths` marks a sequence batch whose rows' true lengths differ.
  void record_batch(std::size_t batch_size, bool mixed_lengths = false);
  // A batch's forward pass threw; its `failed_requests` promises carried
  // the exception.
  void record_errors(std::uint64_t failed_requests);
  // Admission control rejected a request (queue full): shed load.
  void record_shed();
  // `n` requests were swept unexecuted because their deadline had passed.
  void record_deadline_expired(std::uint64_t n);
  // The watchdog replaced a dead/stalled batcher worker.
  void record_worker_restart();

  ServeStatsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  ServeStatsSnapshot recorded_;  // counters and histograms; derived fields unset
  bool started_ = false;
  std::chrono::steady_clock::time_point first_, last_;
};

}  // namespace vsq
