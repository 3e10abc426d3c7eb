#include "serve/session.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace vsq {

InferenceSession::InferenceSession(QuantizedModelPackage pkg, ServeConfig cfg)
    : pkg_(std::move(pkg)),
      cfg_(cfg),
      runner_(pkg_, cfg.scale_product_bits),
      cache_(cfg.cache_entries),
      queue_(cfg.queue_depth) {
  for (const auto& [name, prim] : runner_.primitives()) {
    packed_weight_bytes_ += static_cast<std::uint64_t>(prim.resident_bytes());
  }
  if (cfg_.cache_entries > 0) {
    // Cache entries store input || output: the key is only a 64-bit hash,
    // so hits re-verify the input bytes before trusting the stored row —
    // a collision degrades to a miss, never to a wrong answer.
    result_hook_ = [this](const std::string& key, std::span<const float> input,
                          std::span<const float> output) {
      std::vector<float> entry;
      entry.reserve(input.size() + output.size());
      entry.insert(entry.end(), input.begin(), input.end());
      entry.insert(entry.end(), output.begin(), output.end());
      cache_.put(key, std::move(entry));
    };
  }
  batcher_ = make_batcher(cfg_.warmup);
  if (cfg_.watchdog) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

std::unique_ptr<DynamicBatcher> InferenceSession::make_batcher(bool warmup) {
  BatcherConfig bc;
  bc.max_batch = cfg_.max_batch;
  bc.max_wait_us = cfg_.max_wait_us;
  bc.warmup = warmup;
  bc.out_per_token = runner_.out_per_token();  // 0 (not a sequence model) or > 0
  return std::make_unique<DynamicBatcher>(
      queue_, [this](const Tensor& batch) { return runner_.forward(batch); },
      runner_.in_features(), bc, stats_, result_hook_);
}

InferenceSession::~InferenceSession() { shutdown(); }

void InferenceSession::shutdown() {
  // Stop the watchdog FIRST so it cannot race batcher replacement with
  // teardown; then stop the active batcher (closes the queue, drains,
  // joins) and reap any parked zombies (their run loops exit once the
  // stuck call returns and they observe the closed queue).
  {
    std::lock_guard lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();

  std::lock_guard lock(batcher_mu_);
  if (batcher_) batcher_->stop();
  // A restart-budget fail-over may have left promises in the closed
  // queue; shutdown must not strand them either.
  fail_over_pending();
  for (auto& z : zombies_) z->stop();  // retired: joins without re-closing
  zombies_.clear();
}

void InferenceSession::fail_over_pending() {
  // Only meaningful once the queue is closed (pop_batch never blocks
  // then): drain whatever was admitted and fail it with a typed status.
  if (!queue_.closed()) return;
  for (;;) {
    std::vector<Request> pending = queue_.pop_batch(64, std::chrono::microseconds(0));
    if (pending.empty()) return;
    stats_.record_errors(pending.size());
    for (Request& r : pending) {
      r.promise.set_exception(std::make_exception_ptr(
          UnavailableError("InferenceSession: serving worker unavailable")));
    }
  }
}

void InferenceSession::watchdog_loop() {
  for (;;) {
    {
      std::unique_lock lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, std::chrono::milliseconds(cfg_.watchdog_interval_ms),
                            [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    std::lock_guard lock(batcher_mu_);
    if (!batcher_ || queue_.closed()) continue;

    const bool worker_dead = batcher_->dead();
    const bool worker_stalled =
        !worker_dead && batcher_->busy() &&
        batcher_->heartbeat_age() > std::chrono::milliseconds(cfg_.stall_timeout_ms);
    if (!worker_dead && !worker_stalled) continue;

    if (restarts_used_ >= cfg_.max_worker_restarts) {
      // Budget exhausted: the worker is crash-looping (poisoned model,
      // deterministic fault). Fail the session over instead of burning
      // CPU on restarts — pending and future requests get a typed error.
      queue_.close();
      fail_over_pending();
      batcher_->retire();  // queue already closed; don't double-close
      zombies_.push_back(std::move(batcher_));
      continue;
    }
    ++restarts_used_;
    stats_.record_worker_restart();
    batcher_->retire();
    if (worker_dead) {
      // Exited thread: join it and let the replacement own the queue.
      batcher_->join_dead();
      batcher_.reset();
    } else {
      // Stalled thread: unjoinable until the stuck call returns. Park it;
      // pending promises it holds break (std::future_error) if it ever
      // unwinds, and shutdown reaps it. The replacement serves the queue
      // immediately (pop_batch is mutex-guarded, two poppers are safe).
      zombies_.push_back(std::move(batcher_));
    }
    // No warmup: the arena cost was paid once; restart must be fast.
    batcher_ = make_batcher(/*warmup=*/false);
  }
}

std::future<Tensor> InferenceSession::submit(const Tensor& input, Priority priority,
                                             std::chrono::steady_clock::time_point deadline) {
  const std::int64_t d = runner_.in_features();
  const Shape& s = input.shape();
  std::int64_t out_n = runner_.out_features();
  if (runner_.seq()) {
    // Sequence model: an UNPADDED token row of any length up to max_seq.
    const std::int64_t t = s.rank() == 1 ? s[0] : (s.rank() == 2 && s[0] == 1 ? s[1] : 0);
    if (t < 1 || t > runner_.max_seq()) {
      throw std::invalid_argument(
          "InferenceSession::submit: sequence input must be [T] or [1, T] with 1 <= T <= " +
          std::to_string(runner_.max_seq()));
    }
    // Validate tokens at the door so one malformed request fails alone
    // instead of failing every batch-mate it rides with. Clients send
    // unpadded rows; the pad sentinel (-1) is the batcher's to add.
    const float vocab = static_cast<float>(runner_.vocab());
    for (const float v : input.span()) {
      if (!(v >= 0.0f && v < vocab && v == static_cast<float>(static_cast<std::int64_t>(v)))) {
        throw std::invalid_argument(
            "InferenceSession::submit: token ids must be integral and in [0, " +
            std::to_string(runner_.vocab()) + ")");
      }
    }
    out_n = t * runner_.out_per_token();
  } else {
    const bool ok = (s.rank() == 1 && s[0] == d) || (s.rank() == 2 && s[0] == 1 && s[1] == d);
    if (!ok) {
      throw std::invalid_argument("InferenceSession::submit: input must be [" +
                                  std::to_string(d) + "] or [1, " + std::to_string(d) + "]");
    }
  }
  stats_.mark_start();
  const auto t0 = std::chrono::steady_clock::now();
  if (deadline <= t0) {
    // Already hopeless at the door: same contract as the batcher sweep
    // (shed unexecuted), surfaced synchronously.
    stats_.record_deadline_expired(1);
    throw DeadlineExpiredError("InferenceSession::submit: deadline already expired");
  }

  Request req;
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req.enqueue_time = t0;
  req.deadline = deadline;
  if (cfg_.cache_entries > 0) {
    req.cache_key = blob_key(input.span());
    if (auto hit = cache_.get(req.cache_key)) {
      // Entry layout: input || output. Confirm the stored input actually
      // matches before serving the row (hash collisions become misses).
      // Sequence entries are per-length: in_n/out_n already reflect this
      // request's token count, so a different-length row can't match.
      const auto in_n = static_cast<std::size_t>(input.numel());
      if (hit->size() == in_n + static_cast<std::size_t>(out_n) &&
          std::memcmp(hit->data(), input.data(), in_n * sizeof(float)) == 0) {
        std::promise<Tensor> p;
        std::future<Tensor> f = p.get_future();
        p.set_value(Tensor::from_vector(
            Shape{1, out_n},
            std::vector<float>(hit->begin() + static_cast<std::ptrdiff_t>(in_n), hit->end())));
        stats_.record_request(
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                .count(),
            /*cache_hit=*/true);
        return f;
      }
    }
  }

  // Shallow copy (Tensor shares storage): no per-request allocation. The
  // caller must not mutate the buffer until the future resolves — the
  // batcher reads it when the batch assembles.
  req.input = input;

  std::future<Tensor> f = req.promise.get_future();

  // Admission. kLow's depth limit carves headroom out of the shared queue
  // (0 = the queue's own bound): on a bounded queue kLow sheds at half
  // the depth, while kHigh and kNormal admit up to the full depth.
  std::size_t lane_limit = 0;
  if (cfg_.queue_depth > 0 && priority == Priority::kLow) {
    lane_limit = std::max<std::size_t>(1, cfg_.queue_depth / 2);
  }

  PushStatus st;
  if (cfg_.admission_timeout_us < 0) {
    // Legacy blocking admission — but still honor the lane bound, and
    // return promptly (kClosed) when a shutdown races the wait.
    st = PushStatus::kFull;
    while (st == PushStatus::kFull) {
      st = queue_.try_push_until(
          req, std::chrono::steady_clock::now() + std::chrono::milliseconds(50), lane_limit);
    }
  } else if (cfg_.admission_timeout_us == 0) {
    st = queue_.try_push(req, lane_limit);
  } else {
    st = queue_.try_push_until(
        req, std::chrono::steady_clock::now() + std::chrono::microseconds(cfg_.admission_timeout_us),
        lane_limit);
  }
  if (st == PushStatus::kFull) {
    stats_.record_shed();
    throw QueueFullError("InferenceSession::submit: queue full, request shed");
  }
  if (st == PushStatus::kClosed) {
    throw UnavailableError("InferenceSession::submit: session is shut down");
  }
  return f;
}

Tensor InferenceSession::infer(const Tensor& input, Priority priority) {
  return submit(input, priority).get();
}

}  // namespace vsq
