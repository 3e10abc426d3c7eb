#include "serve/batcher.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "fault/failpoint.h"

namespace vsq {
namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DynamicBatcher::DynamicBatcher(RequestQueue& queue, BatchFn fn, std::int64_t in_features,
                               BatcherConfig cfg, ServeStats& stats, ResultHook on_result)
    : queue_(queue),
      fn_(std::move(fn)),
      in_features_(in_features),
      cfg_(cfg),
      stats_(stats),
      on_result_(std::move(on_result)) {
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;
  if (cfg_.max_wait_us < 0) cfg_.max_wait_us = 0;
  heartbeat_us_.store(now_us(), std::memory_order_release);
  worker_ = std::thread([this] { run(); });
  if (cfg_.warmup) {
    // Block until the worker's warmup forward finished: the session is
    // fully preallocated (worker arena, output buffers) when construction
    // returns, so the first real request sees steady-state latency.
    std::unique_lock lock(warm_mu_);
    warm_cv_.wait(lock, [this] { return warmed_; });
  }
}

DynamicBatcher::~DynamicBatcher() { stop(); }

void DynamicBatcher::stop() {
  if (close_queue_on_stop_.load(std::memory_order_acquire)) queue_.close();
  if (worker_.joinable()) worker_.join();
}

void DynamicBatcher::retire() { close_queue_on_stop_.store(false, std::memory_order_release); }

void DynamicBatcher::join_dead() {
  if (worker_.joinable()) worker_.join();
}

std::chrono::microseconds DynamicBatcher::heartbeat_age() const {
  return std::chrono::microseconds(
      std::max<std::int64_t>(0, now_us() - heartbeat_us_.load(std::memory_order_acquire)));
}

void DynamicBatcher::beat() { heartbeat_us_.store(now_us(), std::memory_order_release); }

void DynamicBatcher::run() {
  // Nothing the worker does may escape as an unhandled exception (that
  // would terminate the process) — an escaped throw marks the worker dead
  // and the session watchdog restarts it. Promises still held by popped
  // requests break on unwind, delivering std::future_error to waiters.
  try {
    run_loop();
  } catch (...) {
  }
  busy_.store(false, std::memory_order_release);
  dead_.store(true, std::memory_order_release);
}

void DynamicBatcher::run_loop() {
  if (cfg_.warmup) {
    // Touch every allocation the steady state needs (packing buffers in
    // this thread's ScratchArena, the output tensor) before the first
    // real request, so no request pays first-call malloc latency.
    try {
      fn_(Tensor(Shape{cfg_.max_batch, in_features_}));
    } catch (...) {
      // Warmup failures surface on the first real request instead.
    }
    {
      std::lock_guard lock(warm_mu_);
      warmed_ = true;
    }
    warm_cv_.notify_all();
  }
  for (;;) {
    beat();
    std::vector<Request> batch =
        queue_.pop_batch(static_cast<std::size_t>(cfg_.max_batch),
                         std::chrono::microseconds(cfg_.max_wait_us));
    if (batch.empty()) return;  // queue closed and drained

    busy_.store(true, std::memory_order_release);
    beat();

    // Injected worker death: return while still holding the popped batch.
    // The requests' promises break on destruction (std::future_error /
    // broken_promise at the waiters), exactly like a crashed thread, and
    // the watchdog sees dead() with an open queue.
    if (VSQ_FAILPOINT_TRIGGERED("serve.batcher.worker_exit")) {
      busy_.store(false, std::memory_order_release);
      dead_.store(true, std::memory_order_release);
      return;
    }
    // Injected stall (delay policy): the worker wedges here, heartbeat
    // stale, busy set — the watchdog's stalled-worker signal.
    VSQ_FAILPOINT("serve.batcher.worker_stall");

    // Deadline sweep: resolve already-expired requests as shed WITHOUT
    // executing them. When the whole batch expired no forward runs at all
    // (and no batch is recorded — `batches` counts executed passes).
    const auto sweep_now = std::chrono::steady_clock::now();
    std::size_t expired = 0;
    for (const Request& r : batch) {
      if (r.deadline <= sweep_now) ++expired;
    }
    if (expired > 0) {
      // Count BEFORE resolving the promises: a waiter that observes the
      // exception must also observe the stat (exact-ledger tests race us
      // from the moment their future throws).
      stats_.record_deadline_expired(expired);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].deadline <= sweep_now) {
          batch[i].promise.set_exception(std::make_exception_ptr(
              DeadlineExpiredError("DynamicBatcher: deadline expired before execution")));
        } else {
          if (kept != i) batch[kept] = std::move(batch[i]);
          ++kept;
        }
      }
      batch.resize(kept);
      if (batch.empty()) {
        busy_.store(false, std::memory_order_release);
        continue;
      }
    }

    const auto rows = static_cast<std::int64_t>(batch.size());
    const bool seq = cfg_.out_per_token > 0;
    std::vector<std::int64_t> lens;
    std::int64_t t_exec = in_features_;
    bool mixed_lengths = false;
    if (seq) {
      // The batch executes padded to its longest member.
      lens.resize(batch.size());
      for (std::size_t r = 0; r < batch.size(); ++r) {
        lens[r] = batch[r].input.numel();
        mixed_lengths = mixed_lengths || lens[r] != lens[0];
      }
      t_exec = *std::max_element(lens.begin(), lens.end());
    }
    Tensor x(Shape{rows, t_exec});
    if (seq) x.fill(-1.0f);  // pad sentinel; each row overwrites its prefix
    for (std::int64_t r = 0; r < rows; ++r) {
      const Request& req = batch[static_cast<std::size_t>(r)];
      const std::int64_t n = seq ? lens[static_cast<std::size_t>(r)] : in_features_;
      std::memcpy(x.data() + r * t_exec, req.input.data(),
                  static_cast<std::size_t>(n) * sizeof(float));
    }

    Tensor y;
    try {
      // Injected batch-fn failure: flows through the same catch as a real
      // forward-pass throw (errors counted, promises carry the exception).
      VSQ_FAILPOINT("serve.batcher.pre_forward");
      y = fn_(x);
    } catch (...) {
      // The failed batch still counts as an executed batch; its requests
      // count as errors (their promises carry the exception, no row was
      // produced), never as completed requests.
      const auto err = std::current_exception();
      stats_.record_batch(batch.size());
      stats_.record_errors(batch.size());
      for (Request& r : batch) r.promise.set_exception(err);
      busy_.store(false, std::memory_order_release);
      continue;
    }

    // All stats recording happens before any promise resolves: a client
    // that wakes up and snapshots immediately still sees its own batch.
    const std::int64_t out = y.shape()[1];
    const auto done = std::chrono::steady_clock::now();
    stats_.record_batch(batch.size(), mixed_lengths);
    for (Request& req : batch) {
      stats_.record_request(
          std::chrono::duration<double, std::micro>(done - req.enqueue_time).count());
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      Request& req = batch[static_cast<std::size_t>(r)];
      Tensor row;
      if (seq) {
        // Deep-copy the meaningful prefix (this row's true length times
        // out_per_token): the padded batch output is worker-owned scratch
        // and the tail of the row describes pad positions.
        const std::int64_t want = lens[static_cast<std::size_t>(r)] * cfg_.out_per_token;
        row = Tensor(Shape{1, want});
        std::memcpy(row.data(), y.data() + r * out,
                    static_cast<std::size_t>(want) * sizeof(float));
      } else {
        row = y.view_rows(r, r + 1);  // zero-copy [1, out] view
      }
      if (on_result_ && !req.cache_key.empty()) {
        on_result_(req.cache_key,
                   std::span<const float>(req.input.data(),
                                          static_cast<std::size_t>(req.input.numel())),
                   std::span<const float>(row.data(),
                                          static_cast<std::size_t>(row.numel())));
      }
      req.promise.set_value(std::move(row));
    }
    busy_.store(false, std::memory_order_release);
  }
}

}  // namespace vsq
