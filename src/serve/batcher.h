// Dynamic batcher: a single worker thread that drains the RequestQueue in
// coalesced batches, stacks the rows into one [B, D] activation matrix,
// runs the session's batched integer forward pass, and scatters the
// output rows back to each request's promise. One batched forward
// amortizes activation staging, output allocation and per-call
// bookkeeping across its rows (each layer's IntLayerPrimitive resolves
// its kernels and prepacks its weight panels once at model load, so they
// cost nothing per batch OR per request).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "serve/request_queue.h"
#include "serve/serve_stats.h"

namespace vsq {

struct BatcherConfig {
  int max_batch = 16;      // rows per forward pass
  int max_wait_us = 0;     // linger for stragglers once a batch opens
  bool warmup = true;      // run one max_batch forward before serving so
                           // the worker's ScratchArena is preallocated
  // Sequence serving (> 0 = sequence mode): requests are unpadded token
  // rows of varying length, and a batch executes padded with the -1.0f
  // sentinel to its longest member (the runner computes over real tokens
  // only, so padding costs nothing). Row L gets L * out_per_token outputs.
  std::int64_t out_per_token = 0;
};

class DynamicBatcher {
 public:
  // Runs the full model on a [B, in] matrix, returns [B, out].
  using BatchFn = std::function<Tensor(const Tensor& batch)>;
  // Called on the worker thread for each request carrying a cache_key,
  // with that request's input and output rows.
  using ResultHook = std::function<void(const std::string& key, std::span<const float> input,
                                        std::span<const float> output)>;

  // Starts the worker immediately; with cfg.warmup set, blocks until the
  // worker's warmup forward pass completed so the first real request sees
  // steady-state latency. `queue`, `stats`, and the callbacks must
  // outlive the batcher. in_features is needed to assemble batches (and
  // to build the warmup input).
  DynamicBatcher(RequestQueue& queue, BatchFn fn, std::int64_t in_features, BatcherConfig cfg,
                 ServeStats& stats, ResultHook on_result = {});
  ~DynamicBatcher();  // closes the queue and joins (drains pending work)

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  // Close the queue and join the worker after it drains. Idempotent.
  // A retired batcher (see retire()) skips the close — the replacement
  // still owns the shared queue.
  void stop();

  // --- Watchdog surface (InferenceSession health monitoring) ---------
  // The worker thread has exited — normally (queue closed and drained) or
  // abnormally (escaped exception, injected worker death). A dead worker
  // with an open queue is the watchdog's restart signal.
  bool dead() const { return dead_.load(std::memory_order_acquire); }
  // The worker is inside the batch function right now. Combined with a
  // stale heartbeat this distinguishes "stalled in forward" from "idle
  // waiting for requests" (the heartbeat only updates around pop/forward).
  bool busy() const { return busy_.load(std::memory_order_acquire); }
  // Time since the worker last proved liveness (before blocking in
  // pop_batch and after every batch). Large + busy() -> stalled.
  std::chrono::microseconds heartbeat_age() const;
  // Detach this batcher from queue ownership: stop()/destruction will no
  // longer close the shared queue. Used when the watchdog replaces a
  // stalled worker it cannot join — the zombie is parked and reaped at
  // shutdown (join blocks until the stuck call returns, so a permanently
  // wedged forward holds shutdown; bounded stalls recover cleanly).
  void retire();
  // Join a dead worker WITHOUT closing the queue, so a replacement
  // batcher can keep serving the same queue. Only call when dead().
  void join_dead();

 private:
  void run();
  void run_loop();
  void beat();

  RequestQueue& queue_;
  BatchFn fn_;
  std::int64_t in_features_;
  BatcherConfig cfg_;
  ServeStats& stats_;
  ResultHook on_result_;
  std::mutex warm_mu_;
  std::condition_variable warm_cv_;
  bool warmed_ = false;
  std::atomic<bool> dead_{false};
  std::atomic<bool> busy_{false};
  std::atomic<bool> close_queue_on_stop_{true};
  std::atomic<std::int64_t> heartbeat_us_{0};  // steady_clock, us since epoch
  std::thread worker_;
};

}  // namespace vsq
