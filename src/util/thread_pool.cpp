#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>

namespace vsq {
namespace {
// Set on pool worker threads, and on a caller while it runs its own chunk,
// so nested parallel_for calls run serially instead of queueing behind the
// sibling chunks that occupy the pool.
thread_local bool t_in_parallel_region = false;

// Innermost ThreadPoolScope pool for this thread (nullptr = global pool).
thread_local ThreadPool* t_current_pool = nullptr;

// Requested global-pool size: SIZE_MAX = unset, 0 = hardware_concurrency.
std::atomic<std::size_t> g_requested_threads{static_cast<std::size_t>(-1)};
std::atomic<bool> g_global_created{false};

std::size_t resolve_global_threads() {
  const std::size_t req = g_requested_threads.load();
  if (req != static_cast<std::size_t>(-1)) return req;
  if (const char* env = std::getenv("VSQ_THREADS")) {
    char* endp = nullptr;
    const long v = std::strtol(env, &endp, 10);
    if (endp != env && *endp == '\0' && v >= 0) return static_cast<std::size_t>(v);
  }
  return 0;  // hardware_concurrency
}
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    n_threads = hc > 0 ? hc : 2;
  }
  // The calling thread participates in parallel_for, so spawn one fewer.
  const std::size_t workers = n_threads > 1 ? n_threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] {
      t_in_parallel_region = true;
      for (;;) {
        std::function<void()> task;
        {
          std::unique_lock lock(mu_);
          cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
          if (stop_ && tasks_.empty()) return;
          task = std::move(tasks_.front());
          tasks_.pop();
        }
        task();  // tasks are noexcept wrappers (see parallel_for)
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& fn,
                              std::size_t grain) {
  if (end <= begin) return;
  // Nested call from inside a parallel region (a pool worker, or the
  // caller running its own chunk): run serially. The other workers are
  // busy with the outer loop; parking on a latch for queue entries only
  // they could run deadlocks on small machines, and fanning out from the
  // caller's chunk would only queue behind its sibling chunks.
  if (t_in_parallel_region) {
    fn(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;
  // The grain hint caps how finely the range splits: small/cheap loops run
  // inline (n <= grain -> one chunk) rather than paying queue + dispatch.
  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t n_chunks = std::min<std::size_t>(workers_.size() + 1, max_chunks);
  if (n_chunks <= 1) {
    fn(begin, end);
    return;
  }
  // Shared-ownership completion latch: workers hold a reference so the
  // latch outlives the caller's wait even if a worker is still inside
  // notify when the caller wakes (avoids use-after-free on the mutex/cv).
  // The first exception thrown by any chunk is captured and rethrown on
  // the calling thread after every chunk has finished (fn must stay alive
  // until the last worker returns).
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = n_chunks - 1;

  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  // Chunks 1..n-1 go to the pool; chunk 0 runs on the calling thread.
  for (std::size_t c = 1; c < n_chunks; ++c) {
    const std::size_t b = begin + c * chunk;
    const std::size_t e = std::min(end, b + chunk);
    submit([latch, &fn, b, e] {
      try {
        if (b < e) fn(b, e);
      } catch (...) {
        std::lock_guard lock(latch->mu);
        if (!latch->error) latch->error = std::current_exception();
      }
      {
        std::lock_guard lock(latch->mu);
        --latch->remaining;
      }
      latch->cv.notify_one();
    });
  }
  // The caller's own chunk is inside the region too (see the nesting rule).
  std::exception_ptr local_error;
  t_in_parallel_region = true;
  try {
    fn(begin, std::min(end, begin + chunk));
  } catch (...) {
    local_error = std::current_exception();
  }
  t_in_parallel_region = false;
  {
    std::unique_lock lock(latch->mu);
    latch->cv.wait(lock, [&] { return latch->remaining == 0; });
  }
  if (local_error) std::rethrow_exception(local_error);
  if (latch->error) std::rethrow_exception(latch->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(resolve_global_threads());
  g_global_created.store(true);
  return pool;
}

void ThreadPool::set_global_threads(std::size_t n_threads) {
  if (g_global_created.load()) {
    const std::size_t have = global().concurrency();
    const std::size_t want =
        n_threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : n_threads;
    if (have != want) {
      throw std::logic_error("ThreadPool::set_global_threads: global pool already created");
    }
    return;
  }
  g_requested_threads.store(n_threads);
}

ThreadPool& current_pool() {
  return t_current_pool ? *t_current_pool : ThreadPool::global();
}

ThreadPoolScope::ThreadPoolScope(ThreadPool& pool) : prev_(t_current_pool) {
  t_current_pool = &pool;
}

ThreadPoolScope::~ThreadPoolScope() { t_current_pool = prev_; }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn, std::size_t grain) {
  current_pool().parallel_for(begin, end, fn, grain);
}

}  // namespace vsq
