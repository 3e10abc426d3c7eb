// Thread pool with a fork/join parallel_for helper, used by the GEMM, conv
// and quantizer kernels and by a batched runner forward (quant/export.h),
// which splits its samples across the pool once.
//
// Claim rule: each parallel_for that splits is one shared job, its range
// cut into chunks behind a cursor that the job's own mutex guards. The
// caller queues one wake-up per chunk beyond its first, then claims chunks
// from the cursor and runs them itself until none is left, and withdraws
// the wake-ups no worker has taken. A woken worker claims from the same
// cursor, and returns at once if every chunk has already been claimed.
// The caller then waits only for chunks a worker has already started, so
// a fork never costs much more than running its chunks serially, however
// late the workers wake.
//
// Nesting rule: a parallel_for issued from inside a chunk of another one
// that split across threads, on a pool worker or on the caller running
// one of its claimed chunks, runs inline on that thread. Parallelism comes
// from the outermost split only, so a kernel called under a runner's
// sample split never forks again.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vsq {

class ThreadPool {
 public:
  // Largest thread count accepted from outside the program: the --threads
  // flag (apply_threads_flag) and the VSQ_THREADS environment variable.
  static constexpr std::size_t kMaxThreads = 1024;

  // n_threads == 0 -> hardware_concurrency(), or 2 when that is unknown.
  // If starting a thread fails, the threads already started are joined
  // and the exception propagates.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }
  // Threads participating in parallel_for (workers + the calling thread).
  std::size_t concurrency() const { return workers_.size() + 1; }

  // Runs fn(chunk_begin, chunk_end) over begin..end split into at most
  // concurrency() roughly equal contiguous chunks, and blocks until all of
  // them finish. Chunks are claimed by the claim rule above: the caller
  // runs every chunk that no worker claims before it does, then waits for
  // the ones workers started. If chunks throw, the first exception
  // recorded is rethrown on the caller after every chunk has finished. A
  // call from inside a chunk of another split parallel_for runs
  // fn(begin, end) inline (the nesting rule above).
  //
  // `grain` is a cost hint: the minimum number of indices per chunk. Loops
  // whose total size is <= grain run inline on the calling thread with no
  // queue traffic or std::function dispatch, and larger loops never split
  // below grain indices per chunk — pass the number of cheap iterations
  // that amortize one dispatch (~a few microseconds of work).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 1);

  // Process-wide pool (lazily constructed). Size precedence: the value set
  // via set_global_threads(), else the VSQ_THREADS environment variable
  // (ignored unless an integer in [0, kMaxThreads]), else
  // hardware_concurrency().
  static ThreadPool& global();

  // Fix the global pool's thread count (0 = the constructor's default).
  // Must be called before the first use of global(); throws
  // std::logic_error once the pool exists with a different size.
  static void set_global_threads(std::size_t n_threads);

 private:
  struct Job;

  void work();
  void join_workers();

  std::vector<std::thread> workers_;
  std::deque<std::shared_ptr<Job>> wakeups_;  // one entry per worker invited
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Pool the free parallel_for below dispatches to on this thread: the
// innermost active ThreadPoolScope's pool, else the global pool. Kernel
// code (gemm, int_gemm, fake-quant) routes through this so callers can
// pin a specific pool without re-plumbing every call site.
ThreadPool& current_pool();

// Thread-local pool override, RAII. While alive on a thread, parallel_for
// calls made from that thread run on `pool` instead of the global pool —
// determinism tests compare a 1-thread against an N-thread pool in one
// process this way (the global pool's size is fixed after first use).
class ThreadPoolScope {
 public:
  explicit ThreadPoolScope(ThreadPool& pool);
  ~ThreadPoolScope();
  ThreadPoolScope(const ThreadPoolScope&) = delete;
  ThreadPoolScope& operator=(const ThreadPoolScope&) = delete;

 private:
  ThreadPool* prev_;
};

// Convenience: parallel_for on current_pool().
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace vsq
