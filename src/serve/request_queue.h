// Lock-guarded MPSC request queue feeding the dynamic batcher. Client
// threads push single-sample requests; the batcher worker pops coalesced
// batches: pop_batch() blocks for the first request, then keeps the batch
// open up to `max_wait` for more requests to arrive (or until `max_batch`
// accumulate), trading a bounded latency hit for batched GEMM efficiency.
//
// Admission: try_push()/try_push_until() fail fast (or by a deadline) with
// kFull so the caller can shed load explicitly, and they take an optional
// per-call depth limit so priority lanes can reserve headroom — a
// low-priority producer capped at half the queue starts shedding while
// high-priority traffic still admits.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace vsq {

// One in-flight inference request: a single input row and the promise its
// output row is delivered through.
struct Request {
  std::uint64_t id = 0;
  Tensor input;  // [1, in_features]
  std::promise<Tensor> promise;
  std::chrono::steady_clock::time_point enqueue_time;
  // Client deadline: the batcher sweeps requests whose deadline has passed
  // out of each popped batch and resolves them with DeadlineExpiredError
  // WITHOUT executing them. max() = no deadline.
  std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();
  std::string cache_key;  // non-empty -> result goes into the session cache
};

// Outcome of a non-blocking / deadline-bounded push. On kFull/kClosed the
// request is NOT consumed — the caller still owns it (and its promise).
enum class PushStatus { kOk, kFull, kClosed };

// Thrown by InferenceSession::submit when admission control sheds the
// request (queue full within the configured deadline). A distinct type so
// callers can tell "server says no, retry later / lower the rate" apart
// from the generic shutdown std::runtime_error.
class QueueFullError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Carried by a request's future (or thrown straight from submit) when its
// deadline passed before the model ran: the request was shed, not executed.
// The wire front-end maps this to Status::kShed like an admission shed —
// from the client's side both mean "the server declined, nothing ran".
class DeadlineExpiredError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Carried by a request's future when the serving worker died with the
// request pending and the watchdog (or shutdown) failed it over: the
// request MAY not have executed and MAY be retried. The wire front-end
// maps this to Status::kUnavailable.
class UnavailableError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class RequestQueue {
 public:
  // max_depth bounds outstanding requests; 0 = unbounded.
  explicit RequestQueue(std::size_t max_depth = 0);

  // Non-blocking push. `depth_limit` optionally tightens the bound for
  // this call (0 = the queue's own max_depth): the effective limit is the
  // smaller of the two, which is how priority lanes carve headroom out of
  // one shared queue. kFull when the effective limit is reached.
  PushStatus try_push(Request& r, std::size_t depth_limit = 0);

  // Deadline-bounded push: waits until space appears, the queue closes, or
  // `deadline` passes (-> kFull). Same depth_limit semantics as try_push.
  PushStatus try_push_until(Request& r, std::chrono::steady_clock::time_point deadline,
                            std::size_t depth_limit = 0);

  // Pops up to max_batch requests. Blocks until at least one request is
  // available, then waits at most `max_wait` (from the moment the batch
  // opened) for it to fill. Returns an empty vector only when the queue is
  // closed and fully drained.
  std::vector<Request> pop_batch(std::size_t max_batch, std::chrono::microseconds max_wait);

  // Close: pushes fail from now on (blocked pushers wake and return
  // kClosed promptly); pop_batch drains what remains.
  void close();
  bool closed() const;
  std::size_t depth() const;
  std::size_t max_depth() const { return max_depth_; }

 private:
  // Effective bound for one push call; 0 = unbounded.
  std::size_t effective_limit(std::size_t depth_limit) const;
  bool has_space(std::size_t limit) const;

  mutable std::mutex mu_;
  std::condition_variable cv_pop_;   // batcher waits for requests
  std::condition_variable cv_push_;  // producers wait for space
  std::deque<Request> q_;
  std::size_t max_depth_;
  bool closed_ = false;
};

}  // namespace vsq
