// Measurement primitives of the serving benchmark: histogram, spans,
// metric output, process counters and the bit-exact audit ledger.
#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "kernels/registry.h"
#include "quant/int_kernel.h"

namespace perfbench {

// ---- LatencyHist ------------------------------------------------------------

int LatencyHist::index_of(std::uint64_t v) {
  if (v < kLinear) return static_cast<int>(v);
  const int msb = std::min(63 - std::countl_zero(v), kMaxMsb);  // >= 8
  const int shift = msb - 6;
  const auto sub = std::min(static_cast<int>(v >> shift), 2 * kSub - 1);  // [64, 128)
  return kLinear + (msb - 8) * kSub + (sub - kSub);
}

void LatencyHist::bounds_of(int idx, double* lo, double* width) {
  if (idx < kLinear) {
    *lo = idx;
    *width = 1.0;
    return;
  }
  const int j = idx - kLinear;
  const int shift = j / kSub + 2;
  const int sub = kSub + j % kSub;
  *lo = std::ldexp(static_cast<double>(sub), shift);
  *width = std::ldexp(1.0, shift);
}

void LatencyHist::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  ++counts_[static_cast<std::size_t>(index_of(v))];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHist::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (int i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(counts_[static_cast<std::size_t>(i)]);
    if (c > 0.0 && rank < before + c) {
      double lo = 0.0, width = 0.0;
      bounds_of(i, &lo, &width);
      return lo + width * (rank - before + 0.5) / c;
    }
    before += c;
  }
  return 0.0;  // unreachable: rank < count_
}

double quantile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- SlicedLatency -----------------------------------------------------------

void SlicedLatency::add(Clock::time_point at, std::int64_t ns) {
  const double t = seconds_between(start_, at) / slice_s_;
  const int i = std::clamp(static_cast<int>(t), 0, kSlices - 1);
  slices_[static_cast<std::size_t>(i)].add(ns);
}

void SlicedLatency::merge(const SlicedLatency& other) {
  for (int i = 0; i < kSlices; ++i) {
    slices_[static_cast<std::size_t>(i)].merge(other.slices_[static_cast<std::size_t>(i)]);
  }
}

LatencyHist SlicedLatency::whole() const {
  LatencyHist h;
  for (const LatencyHist& s : slices_) h.merge(s);
  return h;
}

double SlicedLatency::slice_rate(double p) const {
  std::vector<double> v;
  for (const LatencyHist& s : slices_) v.push_back(static_cast<double>(s.count()) / slice_s_);
  return quantile_of(std::move(v), p);
}

double SlicedLatency::slice_quantile_us(double q, double p) const {
  std::vector<double> v;
  for (const LatencyHist& s : slices_) v.push_back(s.quantile_us(q));
  return quantile_of(std::move(v), p);
}

std::string SlicedLatency::summary() const {
  std::ostringstream os;
  for (const LatencyHist& s : slices_) {
    os << (&s == &slices_.front() ? "" : " ")
       << std::lround(static_cast<double>(s.count()) / slice_s_) << '/'
       << std::lround(s.quantile_us(0.5)) << '/' << std::lround(s.quantile_us(0.9)) << '/'
       << std::lround(s.quantile_us(0.99));
  }
  return os.str();
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) { names_.emplace_back(""); }

std::uint32_t Tracer::intern(const std::string& s) {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == s) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(s);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Log* Tracer::thread_log() {
  std::lock_guard lock(mu_);
  logs_.push_back(std::unique_ptr<Log>(new Log(this, static_cast<std::uint32_t>(logs_.size()))));
  Log* log = logs_.back().get();
  log->spans_.reserve(kKeepPerThread);
  log->by_name_.resize(names_.size());
  return log;
}

std::uint64_t Tracer::Log::record(std::uint32_t name, Clock::time_point start,
                                  Clock::time_point end, std::uint64_t parent,
                                  std::uint64_t request, std::uint32_t detail) {
  if (name >= by_name_.size()) by_name_.resize(name + 1);
  by_name_[name].add(ns_between(start, end));
  const std::uint64_t id = (static_cast<std::uint64_t>(thread_ + 1) << 40) | (++seq_);
  if (spans_.size() < kKeepPerThread) {
    spans_.push_back(Span{name, detail, id, parent, request, ns_between(owner_->epoch_, start),
                          ns_between(owner_->epoch_, end)});
  }
  return id;
}

LatencyHist Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  LatencyHist h;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return h;
  const auto id = static_cast<std::size_t>(it - names_.begin());
  for (const auto& log : logs_) {
    if (id < log->by_name_.size()) h.merge(log->by_name_[id]);
  }
  return h;
}

std::uint64_t Tracer::spans_recorded() const {
  std::lock_guard lock(mu_);
  std::uint64_t n = 0;
  for (const auto& log : logs_) n += log->seq_;
  return n;
}

void Tracer::write_csv(const std::string& path, const std::string& header) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "# " << header << "\n";
  out << "span_id,parent_id,request_id,thread,name,detail,start_ns,end_ns\n";
  for (const auto& log : logs_) {
    for (const Span& s : log->spans_) {
      out << s.id << ',' << s.parent << ',' << s.request << ',' << log->thread_ << ','
          << names_[s.name] << ',' << names_[s.detail] << ',' << s.start_ns << ',' << s.end_ns
          << '\n';
    }
  }
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

// ---- Metrics ----------------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;  // JSON has no NaN/inf
  items_.push_back(Metric{name, value, unit});
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < items_.size(); ++i) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), items_[i].value);
    os << (i ? ", " : "") << '"' << items_[i].name << "\": {\"value\": "
       << std::string(buf, res.ptr) << ", \"unit\": \"" << items_[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

// ---- Counters / RSS -----------------------------------------------------------

Counters Counters::now() {
  return {vsq::kernels::dispatch_resolutions_total(), vsq::detail::panels_packed_total(),
          vsq::detail::panels_unpacked_materialized_total()};
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- Ledger -----------------------------------------------------------------

Ledger::Ledger(std::vector<std::int64_t> expected_len, int clients)
    : expected_len_(std::move(expected_len)),
      slots_(static_cast<std::size_t>(clients), std::vector<Slot>(expected_len_.size())) {
  // Reserve every slot up front so the timed phase never allocates here.
  for (auto& client : slots_) {
    for (std::size_t i = 0; i < client.size(); ++i) {
      client[i].row.reserve(static_cast<std::size_t>(expected_len_[i]));
    }
  }
}

bool Ledger::check(int c, std::size_t i, const float* data, std::size_t n) {
  if (static_cast<std::int64_t>(n) != expected_len_[i]) return false;
  Slot& s = slots_[static_cast<std::size_t>(c)][i];
  if (!s.seen) {
    s.row.assign(data, data + n);
    s.seen = true;
    return true;
  }
  return std::memcmp(s.row.data(), data, n * sizeof(float)) == 0;
}

std::uint64_t Ledger::audit(const vsq::QuantizedModelRunner& reference,
                            const std::vector<vsq::Tensor>& inputs, std::uint64_t* checked) const {
  std::uint64_t bad = 0;
  *checked = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    bool needed = false;
    for (const auto& client : slots_) needed = needed || client[i].seen;
    if (!needed) continue;
    // Sequence rows replay at their true length [1, L]; the served row and
    // the reference are then both exactly L * out_per_token floats.
    const vsq::Tensor want =
        reference.forward(inputs[i].reshape(vsq::Shape{1, inputs[i].numel()}));
    for (const auto& client : slots_) {
      const Slot& s = client[i];
      if (!s.seen) continue;
      ++*checked;
      if (static_cast<std::int64_t>(s.row.size()) != want.numel() ||
          std::memcmp(s.row.data(), want.data(), s.row.size() * sizeof(float)) != 0) {
        ++bad;
      }
    }
  }
  return bad;
}

}  // namespace perfbench
