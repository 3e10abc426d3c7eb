#include "serve/serve_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/table.h"

namespace vsq {
namespace {

// Fills the fields a snapshot derives from its recorded ones. Shared by
// ServeStats::snapshot and ServeStatsSnapshot::merge so the definitions
// cannot drift.
void derive(ServeStatsSnapshot& s) {
  const LatencyHistogram& h = s.latency;
  s.requests = h.count();
  s.p50_us = h.quantile_ns(0.50) / 1e3;
  s.p95_us = h.quantile_ns(0.95) / 1e3;
  s.p99_us = h.quantile_ns(0.99) / 1e3;
  s.mean_us = h.count() > 0 ? static_cast<double>(h.sum_ns()) / 1e3 /
                                  static_cast<double>(h.count())
                            : 0.0;
  s.max_us = static_cast<double>(h.max_ns()) / 1e3;
  s.wall_seconds = s.window_end_s - s.window_start_s;
  s.throughput_rps =
      s.wall_seconds > 0.0 ? static_cast<double>(s.requests) / s.wall_seconds : 0.0;
  std::uint64_t batched_requests = 0;
  for (std::size_t b = 0; b < s.batch_hist.size(); ++b) batched_requests += s.batch_hist[b] * b;
  s.mean_batch = s.batches > 0
                     ? static_cast<double>(batched_requests) / static_cast<double>(s.batches)
                     : 0.0;
}

}  // namespace

int LatencyHistogram::bucket_of(std::uint64_t ns) {
  if (ns < kLinear) return static_cast<int>(ns);
  const int msb = std::min(63 - std::countl_zero(ns), kMaxMsb);  // >= 8
  const int shift = msb - 6;
  const auto sub = std::min(static_cast<int>(ns >> shift), 2 * kSub - 1);  // [64, 128)
  return kLinear + (msb - 8) * kSub + (sub - kSub);
}

void LatencyHistogram::bucket_bounds(int idx, double* lo, double* width) {
  if (idx < kLinear) {
    *lo = idx;
    *width = 1.0;
    return;
  }
  const int j = idx - kLinear;
  const int shift = j / kSub + 2;
  *lo = std::ldexp(static_cast<double>(kSub + j % kSub), shift);
  *width = std::ldexp(1.0, shift);
}

void LatencyHistogram::record(std::uint64_t ns) {
  ++counts_[static_cast<std::size_t>(bucket_of(ns))];
  min_ns_ = count_ == 0 ? ns : std::min(min_ns_, ns);
  max_ns_ = std::max(max_ns_, ns);
  sum_ns_ += ns;
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  min_ns_ = count_ == 0 ? other.min_ns_ : std::min(min_ns_, other.min_ns_);
  max_ns_ = std::max(max_ns_, other.max_ns_);
  sum_ns_ += other.sum_ns_;
  count_ += other.count_;
}

double LatencyHistogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (int i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(counts_[static_cast<std::size_t>(i)]);
    if (c > 0.0 && rank < before + c) {
      // The bucket's c samples are taken as evenly spread over it, sample
      // j at the middle of its 1/c share. Capping at the bucket's upper
      // edge keeps the answer inside the bucket, so it is monotone in q.
      double lo = 0.0, width = 0.0;
      bucket_bounds(i, &lo, &width);
      const double at = lo + width * std::min(1.0, (rank - before + 0.5) / c);
      return std::clamp(at, static_cast<double>(min_ns_), static_cast<double>(max_ns_));
    }
    before += c;
  }
  return static_cast<double>(max_ns_);  // unreachable: rank < count_
}

void ServeStats::mark_start() {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mu_);
  if (!started_) {
    first_ = now;
    last_ = now;
    started_ = true;
  }
}

void ServeStats::record_request(double latency_us, bool cache_hit) {
  const auto now = std::chrono::steady_clock::now();
  const auto ns = static_cast<std::uint64_t>(std::max(0.0, latency_us) * 1e3 + 0.5);
  std::lock_guard lock(mu_);
  recorded_.latency.record(ns);
  if (cache_hit) ++recorded_.cache_hits;
  last_ = now;
}

void ServeStats::record_batch(std::size_t batch_size, bool mixed_lengths) {
  std::lock_guard lock(mu_);
  std::vector<std::uint64_t>& hist = recorded_.batch_hist;
  if (hist.size() <= batch_size) hist.resize(batch_size + 1, 0);
  ++hist[batch_size];
  ++recorded_.batches;
  if (mixed_lengths) ++recorded_.mixed_bucket_batches;
}

void ServeStats::record_errors(std::uint64_t failed_requests) {
  std::lock_guard lock(mu_);
  recorded_.errors += failed_requests;
}

void ServeStats::record_shed() {
  std::lock_guard lock(mu_);
  ++recorded_.shed;
}

void ServeStats::record_deadline_expired(std::uint64_t n) {
  std::lock_guard lock(mu_);
  recorded_.deadline_expired += n;
}

void ServeStats::record_worker_restart() {
  std::lock_guard lock(mu_);
  ++recorded_.worker_restarts;
}

ServeStatsSnapshot ServeStats::snapshot() const {
  ServeStatsSnapshot s;
  {
    std::lock_guard lock(mu_);
    s = recorded_;
    if (started_) {
      s.window_start_s = std::chrono::duration<double>(first_.time_since_epoch()).count();
      s.window_end_s = std::chrono::duration<double>(last_.time_since_epoch()).count();
    }
  }
  derive(s);
  return s;
}

void ServeStatsSnapshot::merge(const ServeStatsSnapshot& other) {
  latency.merge(other.latency);
  batches += other.batches;
  cache_hits += other.cache_hits;
  errors += other.errors;
  shed += other.shed;
  deadline_expired += other.deadline_expired;
  worker_restarts += other.worker_restarts;
  // Queue depth is a point-in-time gauge; retired/drained windows carry 0,
  // so summing reports exactly the live backlog.
  queue_depth += other.queue_depth;
  mixed_bucket_batches += other.mixed_bucket_batches;
  if (batch_hist.size() < other.batch_hist.size()) batch_hist.resize(other.batch_hist.size(), 0);
  for (std::size_t i = 0; i < other.batch_hist.size(); ++i) batch_hist[i] += other.batch_hist[i];
  // The merged window is the SPAN from the earliest start to the latest
  // end: the same first-submit-to-last-completion semantic one window
  // uses, idle gaps included, and exact under any overlap. Summing walls
  // would double-count windows that run concurrently (an unloaded session
  // draining while its replacement serves).
  if (other.window_end_s > 0.0) {
    window_start_s =
        window_end_s > 0.0 ? std::min(window_start_s, other.window_start_s) : other.window_start_s;
    window_end_s = std::max(window_end_s, other.window_end_s);
  }
  // Resident packed-panel bytes describe the loaded model, not traffic:
  // two windows of the same name serve the same (or a reloaded) model, so
  // take the max rather than summing footprints that never coexisted as
  // one serving instance.
  packed_weight_bytes = std::max(packed_weight_bytes, other.packed_weight_bytes);
  derive(*this);
}

void ServeStatsSnapshot::print_table(std::ostream& os) const {
  Table t({"Requests", "Batches", "Mean batch", "Cache hits", "Errors", "Shed", "Expired",
           "Restarts", "Queue", "Throughput r/s", "p50 us", "p95 us", "p99 us", "max us",
           "Packed wt KiB"});
  t.add_row({std::to_string(requests), std::to_string(batches), Table::num(mean_batch, 2),
             std::to_string(cache_hits), std::to_string(errors), std::to_string(shed),
             std::to_string(deadline_expired), std::to_string(worker_restarts),
             std::to_string(queue_depth), Table::num(throughput_rps, 1), Table::num(p50_us, 1),
             Table::num(p95_us, 1), Table::num(p99_us, 1), Table::num(max_us, 1),
             Table::num(static_cast<double>(packed_weight_bytes) / 1024.0, 1)});
  t.print(os);
}

std::string ServeStatsSnapshot::json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"requests\":" << requests << ",\"batches\":" << batches
     << ",\"cache_hits\":" << cache_hits << ",\"errors\":" << errors << ",\"shed\":" << shed
     << ",\"deadline_expired\":" << deadline_expired << ",\"worker_restarts\":" << worker_restarts
     << ",\"queue_depth\":" << queue_depth << ",\"wall_seconds\":" << wall_seconds;
  // Steady-clock seconds count from boot: past 10^6 s of uptime, six
  // significant digits would round the bounds to 10 s, too coarse to
  // rate-convert against.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << ",\"window_start_s\":" << window_start_s << ",\"window_end_s\":" << window_end_s;
  os.precision(6);
  os << ",\"throughput_rps\":" << throughput_rps << ",\"mean_batch\":" << mean_batch
     << ",\"latency_us\":{\"p50\":" << p50_us << ",\"p95\":" << p95_us << ",\"p99\":" << p99_us
     << ",\"mean\":" << mean_us << ",\"max\":" << max_us
     << "},\"packed_weight_bytes\":" << packed_weight_bytes
     << ",\"mixed_bucket_batches\":" << mixed_bucket_batches << ",\"batch_hist\":[";
  for (std::size_t b = 0; b < batch_hist.size(); ++b) {
    if (b) os << ',';
    os << batch_hist[b];
  }
  os << "]}";
  return os.str();
}

}  // namespace vsq
