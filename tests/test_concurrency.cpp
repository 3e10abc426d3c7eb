// Concurrency stress: the global ThreadPool hammered with parallel_for
// from many client threads at once, per-thread ScratchArena mark/rewind
// discipline under that load, ThreadPoolScope routing, the pool's nesting
// and claim rules, and a full InferenceSession under concurrent clients.
// Runs under the ASan/UBSan CI job (labeled "slow" — the sanitizer
// workflow invokes the label explicitly; plain ctest runs it too).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "models/zoo.h"
#include "serve/session.h"
#include "util/scratch.h"
#include "util/thread_pool.h"

namespace vsq {
namespace {

TEST(ThreadPoolStress, ConcurrentParallelForFromManyThreads) {
  // Many external threads issue parallel_for on the shared global pool
  // simultaneously; every loop must see exactly its own range.
  constexpr int kThreads = 8, kIters = 50;
  constexpr std::size_t kN = 10000;
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint8_t> hits(kN);
      for (int it = 0; it < kIters; ++it) {
        std::memset(hits.data(), 0, hits.size());
        parallel_for(
            0, kN,
            [&](std::size_t b, std::size_t e) {
              for (std::size_t i = b; i < e; ++i) ++hits[i];
            },
            /*grain=*/64 + static_cast<std::size_t>(t));
        for (std::size_t i = 0; i < kN; ++i) {
          if (hits[i] != 1) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ThreadPoolStress, ExceptionFromOneClientDoesNotPoisonOthers) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> caught{0}, completed{0};
  std::atomic<std::size_t> sink{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < 20; ++it) {
        try {
          parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
            if (t == 0 && b <= 500 && 500 < e) throw std::runtime_error("boom");
            std::size_t acc = 0;
            for (std::size_t i = b; i < e; ++i) acc += i;
            sink.fetch_add(acc, std::memory_order_relaxed);
          });
          completed.fetch_add(1);
        } catch (const std::runtime_error&) {
          caught.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(caught.load(), 20);                          // every throwing loop rethrown
  EXPECT_EQ(completed.load(), (kThreads - 1) * 20);      // others unaffected
}

TEST(ScratchArenaStress, MarkRewindUnderConcurrentLoad) {
  // Each thread abuses its own thread-local arena while the pool is busy:
  // pointers handed out before a mark must stay valid and disjoint across
  // nested regions, and rewinding must recycle memory (capacity plateaus).
  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ScratchArena& arena = ScratchArena::thread_local_arena();
      for (int it = 0; it < 200; ++it) {
        ScratchRegion outer(arena);
        auto* a = arena.alloc_n<std::uint64_t>(257);
        for (int i = 0; i < 257; ++i) a[i] = 0xa0a0a0a0ull + static_cast<std::uint64_t>(i);
        {
          ScratchRegion inner(arena);
          auto* b = arena.alloc_n<std::uint64_t>(4099);
          for (int i = 0; i < 4099; ++i) b[i] = 0xb0b0b0b0ull;
        }
        auto* c = arena.alloc_n<std::uint64_t>(1031);
        for (int i = 0; i < 1031; ++i) c[i] = 0xc0c0c0c0ull;
        // a survived the inner region and the post-rewind alloc.
        for (int i = 0; i < 257; ++i) {
          if (a[i] != 0xa0a0a0a0ull + static_cast<std::uint64_t>(i)) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
      const std::size_t cap_after_warm = arena.capacity();
      for (int it = 0; it < 100; ++it) {
        ScratchRegion region(arena);
        (void)arena.alloc_n<float>(2048);
      }
      if (arena.capacity() != cap_after_warm) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ScratchArena, ReservePreallocatesWithoutHandingOut) {
  ScratchArena arena;
  arena.reserve(1 << 20);
  const std::size_t cap = arena.capacity();
  EXPECT_GE(cap, std::size_t{1} << 20);
  ScratchRegion region(arena);
  (void)arena.alloc(1 << 19);
  EXPECT_EQ(arena.capacity(), cap);  // served from the reserved block
  arena.reserve(1 << 10);            // already satisfied: no growth
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(ThreadPoolScope, RoutesFreeParallelForToScopedPool) {
  ThreadPool local(3);
  EXPECT_EQ(&current_pool(), &ThreadPool::global());
  {
    ThreadPoolScope scope(local);
    EXPECT_EQ(&current_pool(), &local);
    // Nested scopes restore in LIFO order.
    ThreadPool inner(1);
    {
      ThreadPoolScope scope2(inner);
      EXPECT_EQ(&current_pool(), &inner);
    }
    EXPECT_EQ(&current_pool(), &local);
    // The scope is thread-local: other threads still see the global pool.
    std::thread other([&] { EXPECT_EQ(&current_pool(), &ThreadPool::global()); });
    other.join();
  }
  EXPECT_EQ(&current_pool(), &ThreadPool::global());
}

TEST(ThreadPool, NestedParallelForRunsOnTheIssuingThread) {
  // A parallel_for issued from inside a chunk of a split one runs inline on
  // that chunk's thread, on the caller's own chunk as on a worker's: the
  // outer split already occupies the pool, and a batched runner forward
  // relies on this to run the kernels under each sample group inline.
  ThreadPool pool(3);
  ThreadPoolScope scope(pool);
  std::mutex mu;
  std::vector<std::pair<std::thread::id, std::thread::id>> nested;  // (issuer, runner)
  for (int rep = 0; rep < 50; ++rep) {
    parallel_for(
        0, 3,
        [&](std::size_t, std::size_t) {
          const std::thread::id issuer = std::this_thread::get_id();
          parallel_for(
              0, 3,
              [&](std::size_t, std::size_t) {
                std::lock_guard lock(mu);
                nested.emplace_back(issuer, std::this_thread::get_id());
              },
              /*grain=*/1);
        },
        /*grain=*/1);
  }
  ASSERT_FALSE(nested.empty());
  std::size_t off_thread = 0;
  for (const auto& [issuer, ran_on] : nested) off_thread += issuer != ran_on;
  EXPECT_EQ(off_thread, 0u) << "of " << nested.size() << " nested chunks";
}

TEST(ThreadPool, CallerRunsChunksNoWorkerHasClaimed) {
  // A helper thread's 3-chunk split parks every chunk on `release`: one on
  // the helper and one on each of the pool's two workers. A second split
  // issued meanwhile must not wait behind them: its caller claims and runs
  // every chunk itself and returns while the blockers are still parked. A
  // watchdog releases them after 2 s, so a pool whose caller does wait
  // fails the assertions below instead of hanging.
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int parked = 0;
  std::thread blocker([&] {
    pool.parallel_for(
        0, 3,
        [&](std::size_t, std::size_t) {
          std::unique_lock lock(mu);
          ++parked;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        },
        /*grain=*/1);
  });
  std::thread watchdog([&] {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return release; });
    release = true;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return parked == 3 || release; });
  }

  std::vector<std::thread::id> ran_on(3);
  pool.parallel_for(
      0, 3,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ran_on[i] = std::this_thread::get_id();
      },
      /*grain=*/1);
  bool released_before_return = false;
  {
    std::lock_guard lock(mu);
    released_before_return = release;
    release = true;
  }
  cv.notify_all();
  blocker.join();
  watchdog.join();

  EXPECT_FALSE(released_before_return) << "the caller waited for the parked workers";
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << "chunk " << i;
  }
}

TEST(ServeConcurrencyStress, ManyClientsManyRequests) {
  // End-to-end: 16 clients hammer one session; every output must match
  // sequential execution bit-for-bit. Exercises queue contention, the
  // batcher, per-thread arenas and promise delivery under real load.
  QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  const QuantizedModelRunner reference(pkg);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.cache_entries = 16;  // cache path under contention too
  InferenceSession session(pkg, cfg);

  constexpr int kClients = 16, kPerClient = 24, kDistinct = 12;
  std::vector<Tensor> distinct;
  for (int i = 0; i < kDistinct; ++i) {
    Tensor t(Shape{1, TinyMlp::kIn});
    Rng rng(900 + static_cast<std::uint64_t>(i));
    for (auto& v : t.span()) v = static_cast<float>(rng.normal());
    distinct.push_back(std::move(t));
  }
  std::vector<Tensor> expected;
  for (const Tensor& in : distinct) expected.push_back(reference.forward(in));

  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int which = (c * kPerClient + i) % kDistinct;
        const Tensor out = session.infer(distinct[static_cast<std::size_t>(which)]);
        const Tensor& ref = expected[static_cast<std::size_t>(which)];
        for (std::int64_t j = 0; j < ref.numel(); ++j) {
          if (out[j] != ref[j]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const ServeStatsSnapshot snap = session.stats();
  EXPECT_EQ(snap.requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(snap.cache_hits, 0u);
}

}  // namespace
}  // namespace vsq
