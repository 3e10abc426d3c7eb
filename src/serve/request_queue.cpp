#include "serve/request_queue.h"

#include <algorithm>

namespace vsq {

RequestQueue::RequestQueue(std::size_t max_depth) : max_depth_(max_depth) {}

std::size_t RequestQueue::effective_limit(std::size_t depth_limit) const {
  if (max_depth_ == 0) return depth_limit;
  if (depth_limit == 0) return max_depth_;
  return std::min(max_depth_, depth_limit);
}

bool RequestQueue::has_space(std::size_t limit) const {
  return limit == 0 || q_.size() < limit;
}

PushStatus RequestQueue::try_push(Request& r, std::size_t depth_limit) {
  {
    std::unique_lock lock(mu_);
    if (closed_) return PushStatus::kClosed;
    if (!has_space(effective_limit(depth_limit))) return PushStatus::kFull;
    q_.push_back(std::move(r));
  }
  cv_pop_.notify_one();
  return PushStatus::kOk;
}

PushStatus RequestQueue::try_push_until(Request& r, std::chrono::steady_clock::time_point deadline,
                                        std::size_t depth_limit) {
  {
    std::unique_lock lock(mu_);
    const std::size_t limit = effective_limit(depth_limit);
    // wait_until returns false only on timeout with the predicate still
    // false — i.e. the queue stayed at or above the limit the whole wait.
    if (!cv_push_.wait_until(lock, deadline, [&] { return closed_ || has_space(limit); })) {
      return PushStatus::kFull;
    }
    if (closed_) return PushStatus::kClosed;
    q_.push_back(std::move(r));
  }
  cv_pop_.notify_one();
  return PushStatus::kOk;
}

std::vector<Request> RequestQueue::pop_batch(std::size_t max_batch,
                                             std::chrono::microseconds max_wait) {
  if (max_batch == 0) max_batch = 1;
  std::vector<Request> batch;
  std::unique_lock lock(mu_);
  cv_pop_.wait(lock, [&] { return closed_ || !q_.empty(); });
  if (q_.empty()) return batch;  // closed and drained

  // The batch opens with the first available request; linger up to
  // max_wait for stragglers that can ride the same forward pass. The wait
  // is adaptive: it proceeds in small quanta and stops as soon as a
  // quantum passes with no new arrivals — when every in-flight client is
  // already queued (closed-loop traffic with fewer clients than
  // max_batch), waiting longer cannot grow the batch, it only adds
  // latency to requests already captured.
  if (q_.size() < max_batch && max_wait.count() > 0) {
    const auto quantum = std::max<std::chrono::microseconds>(
        std::chrono::microseconds(10), max_wait / 8);
    const auto deadline = std::chrono::steady_clock::now() + max_wait;
    while (!closed_ && q_.size() < max_batch) {
      const std::size_t before = q_.size();
      const auto until = std::min(deadline, std::chrono::steady_clock::now() + quantum);
      cv_pop_.wait_until(lock, until, [&] { return closed_ || q_.size() >= max_batch; });
      if (q_.size() == before) break;  // stalled: nobody else is coming
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
  }
  const std::size_t take = std::min(max_batch, q_.size());
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  lock.unlock();
  cv_push_.notify_all();
  return batch;
}

void RequestQueue::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  cv_pop_.notify_all();
  cv_push_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  std::lock_guard lock(mu_);
  return q_.size();
}

}  // namespace vsq
