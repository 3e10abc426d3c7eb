// Serving metrics: per-request latency percentiles, batch-size histogram
// and throughput. Recording is thread-safe (client threads record cache
// hits and sheds, the batcher worker records batches and errors);
// snapshot() takes a coherent copy for reporting.
//
// Latency samples live in a bounded sliding window (the last
// `latency_window` completions), so a session's memory footprint is flat
// no matter how long it serves — the original unbounded history grew 8
// bytes per request for the life of the session, a linear leak under
// soak traffic. Percentiles therefore describe recent traffic (window
// size reported in percentile_window); request counts, the latency mean
// and max are tracked as exact running aggregates over ALL requests.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace vsq {

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
  // cross-reload merges sum it (drained windows contribute 0).
  std::uint64_t queue_depth = 0;
  double wall_seconds = 0.0;     // first submit -> last completion
  double throughput_rps = 0.0;   // requests / wall_seconds
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  double mean_us = 0.0, max_us = 0.0;
  double mean_batch = 0.0;                // requests per executed batch
  std::vector<std::uint64_t> batch_hist;  // index = batch size (0 unused)
  // Executed sequence batches whose rows have at least two distinct true
  // lengths (a short and a long request riding one forward pass). 0 for
  // non-sequence sessions; cross-reload merges sum it. The name is kept
  // from the retired pad-bucket batcher because perfbench reads this
  // field and its JSON key.
  std::uint64_t mixed_bucket_batches = 0;
  // Latency samples the percentiles were computed over: the sliding
  // window's occupancy, i.e. min(requests, window capacity) for a plain
  // snapshot. When ModelRegistry merges windows across hot reloads it
  // keeps the percentiles of the largest single window and records that
  // window's size here (quantiles cannot be merged from summaries).
  std::uint64_t percentile_window = 0;
  // Window bounds in steady-clock seconds (process-relative; 0/0 when no
  // request was ever recorded). ModelRegistry's cross-reload merge sets
  // the merged wall clock to the span over all windows (earliest start to
  // latest end — the same first-submit-to-last-completion semantic a
  // single window uses), so throughput_rps never divides by
  // double-counted time when windows overlap (an old session draining
  // while its replacement serves).
  double window_start_s = 0.0, window_end_s = 0.0;
  // Resident bytes of the session's pre-packed weight panels (sub-byte
  // packed layouts shrink this below the int16-panel footprint). A
  // property of the loaded model, not a counter: ModelRegistry's
  // cross-reload merge takes the max, never the sum.
  std::uint64_t packed_weight_bytes = 0;

  // Two-row aligned table (util/Table) for terminal output.
  void print_table(std::ostream& os) const;
  // Single-line JSON object, machine-readable (vsq_serve --json-out, the
  // net server's /stats endpoint). Carries every snapshot field.
  std::string json() const;
};

class ServeStats {
 public:
  // Latency samples retained for percentile estimation. 8192 doubles =
  // 64 KiB per session, enough that p99 is a real tail statistic while a
  // week-long soak holds exactly as much memory as a minute-long one.
  static constexpr std::size_t kDefaultLatencyWindow = 8192;

  explicit ServeStats(std::size_t latency_window = kDefaultLatencyWindow);

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

  std::size_t latency_window_capacity() const { return window_cap_; }

 private:
  mutable std::mutex mu_;
  const std::size_t window_cap_;
  std::vector<double> window_;    // ring buffer, size() <= window_cap_
  std::size_t window_next_ = 0;   // overwrite cursor once the ring is full
  std::uint64_t requests_ = 0;
  double latency_sum_us_ = 0.0;   // exact running aggregates over ALL
  double latency_max_us_ = 0.0;   // requests, window-independent
  std::vector<std::uint64_t> batch_hist_;
  std::uint64_t batches_ = 0, cache_hits_ = 0, errors_ = 0, shed_ = 0;
  std::uint64_t deadline_expired_ = 0, worker_restarts_ = 0;
  std::uint64_t mixed_bucket_batches_ = 0;
  bool started_ = false;
  std::chrono::steady_clock::time_point first_, last_;
};

// Percentile of an unsorted sample, p in [0, 100] (clamped). Linear
// interpolation between closest order statistics (the numpy/Excel
// "linear" definition), so low-count samples degrade gracefully: the old
// nearest-rank rule snapped every p above 100*(n-1)/n straight to the
// maximum, which made the reported p99 just "max" (and p50 of two samples
// the larger one) until ~100 requests had completed. Now p50 of {a, b} is
// their midpoint, a single sample answers every p with itself, and an
// empty sample returns 0. p99 still converges to the tail as n grows —
// just without pretending an n-sample run resolved a quantile it cannot.
double percentile_us(std::vector<double> sample, double p);

// Mean requests per executed batch, derived from the batch-size histogram
// (index = batch size). Shared by ServeStats::snapshot and the registry's
// cross-reload snapshot merge so the definition cannot drift.
double mean_batch_from_hist(const std::vector<std::uint64_t>& hist, std::uint64_t batches);

}  // namespace vsq
