// Fork/join cost of ThreadPool::parallel_for: times empty 2- and 4-chunk
// splits one at a time on the global pool and prints per-fork quantiles.
// An empty chunk does no work, so each figure is the cost of the split
// itself: queueing the wake-ups, claiming the chunks and the join.
//
//   ./build/bench/bench_fork_join [--threads=N] [--forks=20000]
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "util/args.h"
#include "util/table.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace vsq;
  using Clock = std::chrono::steady_clock;
  const Args args(argc, argv);
  if (!apply_threads_flag(args)) return 1;
  const int forks = std::max(1, args.get_int("forks", 20000));
  ThreadPool& pool = ThreadPool::global();
  const std::function<void(std::size_t, std::size_t)> empty = [](std::size_t, std::size_t) {};

  std::cout << "empty parallel_for, " << pool.concurrency() << "-thread pool, " << forks
            << " forks each\n";
  Table t({"chunks", "p50 us", "p90 us", "p99 us"});
  for (const std::size_t chunks : {std::size_t{2}, std::size_t{4}}) {
    if (chunks > pool.concurrency()) continue;
    for (int i = 0; i < 1000; ++i) pool.parallel_for(0, chunks, empty, /*grain=*/1);
    std::vector<double> us(static_cast<std::size_t>(forks));
    for (double& u : us) {
      const auto t0 = Clock::now();
      pool.parallel_for(0, chunks, empty, /*grain=*/1);
      u = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    }
    std::sort(us.begin(), us.end());
    const auto q = [&](double p) { return us[static_cast<std::size_t>(p * (us.size() - 1))]; };
    t.add_row({std::to_string(chunks), Table::num(q(0.5)), Table::num(q(0.9)), Table::num(q(0.99))});
  }
  t.print(std::cout);
  return 0;
}
