#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "fault/failpoint.h"

namespace vsq {
namespace {
// Set on pool worker threads, and on a caller while it runs its claimed
// chunks, so nested parallel_for calls run serially instead of queueing
// behind the sibling chunks that occupy the pool.
thread_local bool t_in_parallel_region = false;

// Innermost ThreadPoolScope pool for this thread (nullptr = global pool).
thread_local ThreadPool* t_current_pool = nullptr;

// Requested global-pool size: SIZE_MAX = unset, 0 = default_threads().
std::atomic<std::size_t> g_requested_threads{static_cast<std::size_t>(-1)};
std::atomic<bool> g_global_created{false};

std::size_t default_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 2;
}

std::size_t resolve_global_threads() {
  const std::size_t req = g_requested_threads.load();
  if (req != static_cast<std::size_t>(-1)) return req;
  if (const char* env = std::getenv("VSQ_THREADS")) {
    char* endp = nullptr;
    const long v = std::strtol(env, &endp, 10);
    if (endp != env && *endp == '\0' && v >= 0 &&
        static_cast<unsigned long>(v) <= ThreadPool::kMaxThreads) {
      return static_cast<std::size_t>(v);
    }
  }
  return 0;  // default_threads()
}
}  // namespace

// One split parallel_for. Chunk c covers [begin + c*chunk, begin +
// (c+1)*chunk) clipped to end; `next` is the claim cursor. Wake-ups share
// ownership, so a worker that took one just before the caller withdrew
// the rest may look at the job after the caller has returned: it sees
// every chunk claimed and leaves fn alone.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t, std::size_t)>& f, std::size_t b, std::size_t e,
      std::size_t n)
      : fn(&f), begin(b), end(e), n_chunks(n), chunk((e - b + n - 1) / n) {}

  // Claims and runs chunks until none is left unclaimed. Returns true if
  // this thread finished the job's last running chunk.
  bool run_chunks() {
    bool finished_last = false;
    std::unique_lock lock(mu);
    while (next < n_chunks) {
      const std::size_t b = begin + next++ * chunk;
      lock.unlock();
      std::exception_ptr chunk_error;
      try {
        if (b < end) (*fn)(b, std::min(end, b + chunk));
      } catch (...) {
        chunk_error = std::current_exception();
      }
      lock.lock();
      if (chunk_error && !error) error = std::move(chunk_error);
      finished_last = ++finished == n_chunks;
    }
    return finished_last;
  }

  // Owned by the caller, which returns only once every claimed chunk has
  // finished; only a thread holding a claimed chunk calls it.
  const std::function<void(std::size_t, std::size_t)>* fn;
  const std::size_t begin, end, n_chunks, chunk;
  std::mutex mu;  // guards the fields below
  std::condition_variable done;  // signalled when `finished` reaches n_chunks
  std::size_t next = 0;
  std::size_t finished = 0;
  std::exception_ptr error;  // first exception a chunk threw
};

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) n_threads = default_threads();
  // The calling thread participates in parallel_for, so spawn one fewer.
  const std::size_t workers = n_threads > 1 ? n_threads - 1 : 0;
  workers_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { work(); });
      VSQ_FAILPOINT("thread_pool.spawn");  // a spawn failing with workers running
    }
  } catch (...) {
    // Destroying a joinable std::thread terminates the process.
    join_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { join_workers(); }

void ThreadPool::join_workers() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work() {
  t_in_parallel_region = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !wakeups_.empty(); });
      if (stop_ && wakeups_.empty()) return;
      job = std::move(wakeups_.front());
      wakeups_.pop_front();
    }
    if (job->run_chunks()) job->done.notify_one();  // the caller may be waiting
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& fn,
                              std::size_t grain) {
  if (end <= begin) return;
  // Nested call from inside a parallel region (a pool worker, or the
  // caller running one of its claimed chunks): run serially. The other
  // workers are busy with the outer loop, and fanning out from inside a
  // chunk would only queue behind its sibling chunks.
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
  // Invite one worker per chunk beyond the caller's first, then claim
  // alongside them (the claim rule in the header). fn stays alive until
  // the wait below: every chunk that runs it has finished by then.
  const auto job = std::make_shared<Job>(fn, begin, end, n_chunks);
  {
    std::lock_guard lock(mu_);
    wakeups_.insert(wakeups_.end(), n_chunks - 1, job);
  }
  for (std::size_t i = 1; i < n_chunks; ++i) cv_.notify_one();
  // The caller's chunks are inside the region too (see the nesting rule).
  t_in_parallel_region = true;
  job->run_chunks();
  t_in_parallel_region = false;
  // Every chunk is claimed now. Withdraw the wake-ups no worker has taken,
  // so they do not pile up, each holding its job, while the workers are
  // busy elsewhere, and a worker woken for one goes back to sleep.
  {
    std::lock_guard lock(mu_);
    std::erase(wakeups_, job);
  }
  {
    std::unique_lock lock(job->mu);
    job->done.wait(lock, [&] { return job->finished == n_chunks; });
  }
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(resolve_global_threads());
  g_global_created.store(true);
  return pool;
}

void ThreadPool::set_global_threads(std::size_t n_threads) {
  if (g_global_created.load()) {
    const std::size_t want = n_threads == 0 ? default_threads() : n_threads;
    if (global().concurrency() != want) {
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
