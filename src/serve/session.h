// InferenceSession: the serving engine's front door. Owns a loaded
// QuantizedModelPackage, its QuantizedModelRunner, the request queue, the
// dynamic batcher worker, the repeated-input result cache and the metrics
// collector. Client threads submit() single-sample inputs and get futures;
// the batcher coalesces them into batched integer forward passes. Outputs
// are bit-identical to sequential single-sample execution (int_gemm rows
// are independent), so batching is purely a throughput optimization.
//
//   InferenceSession session(QuantizedModelPackage::load(path), cfg);
//   std::future<Tensor> f = session.submit(input_row);
//   Tensor y = f.get();                 // [1, out_features]
//   std::cout << session.stats().json() << "\n";
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "quant/export.h"
#include "serve/batcher.h"
#include "serve/request_queue.h"
#include "serve/serve_stats.h"
#include "util/result_cache.h"

namespace vsq {

// Priority lane of a request. Lanes layer on the ONE shared RequestQueue
// as admission headroom, not separate queues: on a bounded queue kLow
// requests are shed once it holds max(1, queue_depth / 2), so under
// overload low-priority traffic starts shedding first and kHigh and
// kNormal requests still admit into the half kLow may not use.
// Batching/FIFO order inside the queue is unchanged.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

struct ServeConfig {
  int max_batch = 16;
  // Extra time a freshly opened batch lingers for stragglers. 0 (the
  // default) means "take what's queued": under sustained load batches
  // form naturally while the previous forward pass runs, and waiting only
  // adds latency. Raise it for sparse open-loop traffic where merging
  // arrivals is worth a bounded latency hit.
  int max_wait_us = 0;
  int scale_product_bits = -1;   // as in int_gemm; -1 = full product
  std::size_t queue_depth = 0;   // bound on queued requests; 0 = unbounded
  std::size_t cache_entries = 0; // repeated-input BlobCache size; 0 = off
  bool warmup = true;
  // Admission control at submit() on a bounded queue (queue_depth > 0):
  //   < 0  (default) block until space frees — the legacy in-process
  //        behavior, where backpressure is the caller's blocked thread;
  //   == 0 shed immediately when the lane is full (throw QueueFullError);
  //   > 0  wait up to this many microseconds for space, then shed.
  // A server front-end wants 0 (or small): an explicit rejection the
  // client can act on beats an invisible head-of-line stall.
  int admission_timeout_us = -1;
  // Batcher watchdog: a monitor thread that detects a dead worker (thread
  // exited with the queue still open — escaped exception, injected death)
  // or a stalled one (busy in the forward pass with a stale heartbeat)
  // and replaces it, so one poisoned batch cannot take the session down.
  bool watchdog = true;
  int watchdog_interval_ms = 100;  // health-check cadence
  // busy + no heartbeat for this long -> stalled. Generous by default:
  // a legitimate huge batch on a slow machine must not trip it.
  int stall_timeout_ms = 5000;
  // Worker replacements before the watchdog gives up and fails the
  // session over: the queue closes and every pending request's promise
  // carries UnavailableError. Guards against a deterministically
  // poisoned model crash-looping the worker forever.
  int max_worker_restarts = 3;
};

class InferenceSession {
 public:
  // Takes ownership of the package (the runner points into it). Throws
  // std::invalid_argument when the package has no runnable program.
  explicit InferenceSession(QuantizedModelPackage pkg, ServeConfig cfg = {});
  ~InferenceSession();

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  // input: [in_features] or [1, in_features]. Sequence models instead
  // take an UNPADDED token row [T] or [1, T] for any 1 <= T <= max_seq;
  // token values are validated here (integral, in [0, vocab)) so one bad
  // request fails at the door instead of failing its whole batch, and the
  // future resolves to that request's [1, T * out_per_token] logits. The
  // tensor's storage is shared (no copy) — do not mutate it before the
  // future resolves. The future resolves to the [1, out_features] output
  // row for non-sequence models. Throws
  // UnavailableError once the queue is closed (shutdown, or a drain for
  // unload/reload), and QueueFullError when
  // admission control sheds the request (bounded queue full within
  // cfg.admission_timeout_us — never thrown with the default blocking
  // admission). `priority` picks the admission lane (see Priority).
  //
  // `deadline` (steady clock, max() = none) propagates into the batcher:
  // a request whose deadline passes before its batch executes is swept
  // out unexecuted and its future carries DeadlineExpiredError (counted
  // as deadline_expired, the wire maps it to kShed). A deadline that has
  // already passed at submit throws DeadlineExpiredError directly.
  std::future<Tensor> submit(
      const Tensor& input, Priority priority = Priority::kNormal,
      std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max());

  // Blocking convenience: submit + get.
  Tensor infer(const Tensor& input, Priority priority = Priority::kNormal);

  // Stop accepting requests, drain the queue, join the worker. Idempotent;
  // the destructor calls it.
  void shutdown();

  const QuantizedModelRunner& runner() const { return runner_; }
  const QuantizedModelPackage& package() const { return pkg_; }
  // Snapshot carries the session's resident packed-panel bytes (a static
  // property of the loaded model, summed over its primitives at load) and
  // the live queue-depth gauge sampled at call time.
  ServeStatsSnapshot stats() const {
    ServeStatsSnapshot s = stats_.snapshot();
    s.packed_weight_bytes = packed_weight_bytes_;
    s.queue_depth = queue_.depth();
    return s;
  }

 private:
  std::unique_ptr<DynamicBatcher> make_batcher(bool warmup);
  void watchdog_loop();
  // Restart-budget exhausted (or shutdown): close the queue and fail every
  // still-pending request with UnavailableError.
  void fail_over_pending();

  QuantizedModelPackage pkg_;
  ServeConfig cfg_;
  QuantizedModelRunner runner_;
  ServeStats stats_;
  std::uint64_t packed_weight_bytes_ = 0;
  BlobCache cache_;
  RequestQueue queue_;
  std::atomic<std::uint64_t> next_id_{0};
  // Kept as a member so the watchdog can build replacement batchers.
  DynamicBatcher::ResultHook result_hook_;
  // Guards batcher_/zombies_/restarts_used_ against watchdog vs shutdown
  // races. The submit path never takes it (producers only touch queue_).
  std::mutex batcher_mu_;
  int restarts_used_ = 0;
  // Stalled workers the watchdog replaced but could not join: parked here
  // (still wedged in the forward pass) and reaped at shutdown.
  std::vector<std::unique_ptr<DynamicBatcher>> zombies_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::unique_ptr<DynamicBatcher> batcher_;
  std::thread watchdog_;  // last member: must stop before batcher_ dies
};

}  // namespace vsq
