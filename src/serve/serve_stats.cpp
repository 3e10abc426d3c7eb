#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>

#include "util/table.h"

namespace vsq {

double percentile_us(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  if (!(p > 0.0)) return sample.front();  // also catches NaN
  if (p >= 100.0) return sample.back();
  // Interpolated rank over n-1 gaps: r = p/100 * (n-1), blend the two
  // bracketing order statistics. Exact order statistics fall out when r is
  // integral, n == 1 answers every p with the single sample.
  const double r = p / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(r);
  const double frac = r - static_cast<double>(lo);
  if (lo + 1 >= sample.size()) return sample.back();
  return sample[lo] + frac * (sample[lo + 1] - sample[lo]);
}

ServeStats::ServeStats(std::size_t latency_window)
    : window_cap_(std::max<std::size_t>(1, latency_window)) {}

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
  std::lock_guard lock(mu_);
  // Sliding window: grow until the capacity is reached, then overwrite the
  // oldest sample in ring order. The ring never reallocates past
  // window_cap_, so per-session memory is flat in request count.
  if (window_.size() < window_cap_) {
    window_.push_back(latency_us);
  } else {
    window_[window_next_] = latency_us;
    window_next_ = (window_next_ + 1) % window_cap_;
  }
  ++requests_;
  latency_sum_us_ += latency_us;
  latency_max_us_ = std::max(latency_max_us_, latency_us);
  if (cache_hit) ++cache_hits_;
  last_ = now;
}

void ServeStats::record_batch(std::size_t batch_size, bool mixed_lengths) {
  std::lock_guard lock(mu_);
  if (batch_hist_.size() <= batch_size) batch_hist_.resize(batch_size + 1, 0);
  ++batch_hist_[batch_size];
  ++batches_;
  if (mixed_lengths) ++mixed_bucket_batches_;
}

void ServeStats::record_errors(std::uint64_t failed_requests) {
  std::lock_guard lock(mu_);
  errors_ += failed_requests;
}

void ServeStats::record_shed() {
  std::lock_guard lock(mu_);
  ++shed_;
}

void ServeStats::record_deadline_expired(std::uint64_t n) {
  std::lock_guard lock(mu_);
  deadline_expired_ += n;
}

void ServeStats::record_worker_restart() {
  std::lock_guard lock(mu_);
  ++worker_restarts_;
}

ServeStatsSnapshot ServeStats::snapshot() const {
  std::vector<double> lat;
  ServeStatsSnapshot s;
  {
    std::lock_guard lock(mu_);
    lat = window_;  // percentile input order is irrelevant (sorted inside)
    s.batch_hist = batch_hist_;
    s.mixed_bucket_batches = mixed_bucket_batches_;
    s.requests = requests_;
    s.batches = batches_;
    s.cache_hits = cache_hits_;
    s.errors = errors_;
    s.shed = shed_;
    s.deadline_expired = deadline_expired_;
    s.worker_restarts = worker_restarts_;
    if (requests_ > 0) {
      s.mean_us = latency_sum_us_ / static_cast<double>(requests_);
      s.max_us = latency_max_us_;
    }
    if (started_) {
      s.wall_seconds = std::chrono::duration<double>(last_ - first_).count();
      s.window_start_s =
          std::chrono::duration<double>(first_.time_since_epoch()).count();
      s.window_end_s = std::chrono::duration<double>(last_.time_since_epoch()).count();
    }
  }
  s.percentile_window = lat.size();
  if (!lat.empty()) {
    s.p50_us = percentile_us(lat, 50.0);
    s.p95_us = percentile_us(lat, 95.0);
    s.p99_us = percentile_us(lat, 99.0);
  }
  if (s.wall_seconds > 0.0) {
    s.throughput_rps = static_cast<double>(s.requests) / s.wall_seconds;
  }
  s.mean_batch = mean_batch_from_hist(s.batch_hist, s.batches);
  return s;
}

double mean_batch_from_hist(const std::vector<std::uint64_t>& hist, std::uint64_t batches) {
  if (batches == 0) return 0.0;
  std::uint64_t batched_requests = 0;
  for (std::size_t b = 0; b < hist.size(); ++b) batched_requests += hist[b] * b;
  return static_cast<double>(batched_requests) / static_cast<double>(batches);
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
     << ",\"queue_depth\":" << queue_depth << ",\"wall_seconds\":" << wall_seconds
     << ",\"window_start_s\":" << window_start_s << ",\"window_end_s\":" << window_end_s
     << ",\"throughput_rps\":" << throughput_rps << ",\"mean_batch\":" << mean_batch
     << ",\"latency_us\":{\"p50\":" << p50_us << ",\"p95\":" << p95_us << ",\"p99\":" << p99_us
     << ",\"mean\":" << mean_us << ",\"max\":" << max_us
     << ",\"percentile_window\":" << percentile_window
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
