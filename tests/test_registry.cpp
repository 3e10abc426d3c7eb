// ModelRegistry tests: multi-model routing correctness (every response
// bit-identical to a per-model sequential reference), hot load/unload
// semantics (drain guarantees, clean rejection races), per-model and
// cumulative-across-reload stats aggregation, and the registry archive
// load path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/ptq.h"
#include "fault/failpoint.h"
#include "hw/mac_config.h"
#include "models/zoo.h"
#include "serve/registry.h"

namespace vsq {
namespace {

QuantizedModelPackage tiny_package() { return tiny_mlp_package(MacConfig::parse("4/8/6/10")); }

QuantizedModelPackage tiny8_package() { return tiny_mlp_package(MacConfig::parse("8/8/6/6")); }

QuantizedModelPackage conv_package() {
  MacConfig mac = MacConfig::parse("4/8/6/10");
  mac.act_unsigned = true;
  return tiny_conv_package(mac);
}

Tensor random_row(std::int64_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{1, cols});
  for (auto& v : t.span()) v = static_cast<float>(rng.normal());
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

TEST(ModelRegistry, RoutesByNameBitExact) {
  QuantizedModelPackage mlp = tiny_package();
  QuantizedModelPackage cnn = conv_package();
  const QuantizedModelRunner mlp_ref(mlp);
  const QuantizedModelRunner cnn_ref(cnn);

  ModelRegistry reg;
  reg.load("mlp", tiny_package());
  reg.load("cnn", conv_package());
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.models(), (std::vector<std::string>{"cnn", "mlp"}));

  for (int i = 0; i < 8; ++i) {
    const Tensor xm = random_row(mlp_ref.in_features(), 100 + static_cast<std::uint64_t>(i));
    const Tensor xc = random_row(cnn_ref.in_features(), 200 + static_cast<std::uint64_t>(i));
    expect_bitwise_equal(mlp_ref.forward(xm), reg.infer("mlp", xm));
    expect_bitwise_equal(cnn_ref.forward(xc), reg.infer("cnn", xc));
  }
  EXPECT_EQ(reg.stats("mlp").requests, 8u);
  EXPECT_EQ(reg.stats("cnn").requests, 8u);
}

TEST(ModelRegistry, UnknownModelAndDuplicateLoad) {
  ModelRegistry reg;
  reg.load("a", tiny_package());
  EXPECT_THROW(reg.submit("b", Tensor(Shape{1, TinyMlp::kIn})), std::out_of_range);
  EXPECT_THROW(reg.stats("b"), std::out_of_range);
  EXPECT_THROW(reg.load("a", tiny_package()), std::invalid_argument);
  EXPECT_FALSE(reg.contains("b"));
  EXPECT_TRUE(reg.contains("a"));
}

TEST(ModelRegistry, UnloadDrainsInFlightRequests) {
  ServeConfig cfg;
  cfg.max_batch = 4;
  ModelRegistry reg(cfg);
  reg.load("m", tiny_package());
  const Tensor input = random_row(TinyMlp::kIn, 9);
  std::vector<std::future<Tensor>> pending;
  for (int i = 0; i < 32; ++i) pending.push_back(reg.submit("m", input));
  ASSERT_TRUE(reg.unload("m"));
  EXPECT_FALSE(reg.contains("m"));
  EXPECT_FALSE(reg.unload("m"));  // second unload: no-op
  for (auto& f : pending) {
    const Tensor y = f.get();  // accepted before the drain -> must resolve
    EXPECT_EQ(y.shape()[1], TinyMlp::kOut);
  }
}

TEST(ModelRegistry, HotReloadReusesNameAndAccumulatesStats) {
  ModelRegistry reg;
  reg.load("m", tiny_package());
  const Tensor input = random_row(TinyMlp::kIn, 10);
  const Tensor before = reg.infer("m", input);
  ASSERT_TRUE(reg.unload("m"));
  // Stats survive the unload (model currently not routed).
  EXPECT_EQ(reg.stats("m").requests, 1u);
  reg.load("m", tiny_package());
  const Tensor after = reg.infer("m", input);
  // Same deterministic package rebuilt -> same bits.
  expect_bitwise_equal(before, after);
  // Cumulative across the reload: both windows count.
  EXPECT_EQ(reg.stats("m").requests, 2u);
  const std::vector<RegistryModelStats> all = reg.stats_all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].name, "m");
  EXPECT_EQ(all[0].serve.requests, 2u);
}

TEST(ModelRegistry, ShedCounterAccumulatesAcrossHotReloads) {
  // A shed is an explicit serving decision; losing the count on reload
  // would hide overload history from /stats. Saturate a depth-1 queue
  // under a lingering batcher in two separate incarnations and the
  // merged snapshot must carry both windows' sheds.
  ServeConfig cfg;
  cfg.queue_depth = 1;
  cfg.admission_timeout_us = 0;  // full queue -> immediate QueueFullError
  cfg.max_batch = 16;
  cfg.max_wait_us = 400000;  // linger holds admitted requests in the queue
  ModelRegistry reg(cfg);
  const Tensor input = random_row(TinyMlp::kIn, 16);

  const auto shed_some = [&]() -> std::uint64_t {
    std::uint64_t sheds = 0;
    std::vector<std::future<Tensor>> accepted;
    for (int i = 0; i < 64 && sheds < 3; ++i) {
      try {
        accepted.push_back(reg.submit("m", input));
      } catch (const QueueFullError&) {
        ++sheds;
      }
    }
    for (auto& f : accepted) (void)f.get();
    return sheds;
  };

  reg.load("m", tiny_package());
  const std::uint64_t first = shed_some();
  ASSERT_GT(first, 0u) << "depth-1 lingering queue never shed";
  EXPECT_EQ(reg.stats("m").shed, first);
  ASSERT_TRUE(reg.unload("m"));
  // Retired window still reports its sheds while the model is unloaded.
  EXPECT_EQ(reg.stats("m").shed, first);

  reg.load("m", tiny_package());
  const std::uint64_t second = shed_some();
  ASSERT_GT(second, 0u);
  const ServeStatsSnapshot merged = reg.stats("m");
  EXPECT_EQ(merged.shed, first + second);
  // Errors ride the same merge path; none were provoked here.
  EXPECT_EQ(merged.errors, 0u);
  ASSERT_TRUE(reg.unload("m"));
  EXPECT_EQ(reg.stats("m").shed, first + second);
}

TEST(ModelRegistry, StatsStayVisibleWhileDraining) {
  ServeConfig cfg;
  cfg.max_batch = 1;
  ModelRegistry reg(cfg);
  reg.load("m", tiny_package());
  const Tensor input = random_row(TinyMlp::kIn, 14);
  std::vector<std::future<Tensor>> pending;
  for (int i = 0; i < 48; ++i) pending.push_back(reg.submit("m", input));
  std::thread unloader([&] { reg.unload("m"); });
  // While the unload drains (and after it retires the window), the model
  // must never vanish from stats: no out_of_range, no dropped row.
  for (int i = 0; i < 200; ++i) {
    (void)reg.stats("m");
    bool found = false;
    for (const RegistryModelStats& m : reg.stats_all()) found = found || m.name == "m";
    EXPECT_TRUE(found) << "iteration " << i;
    std::this_thread::yield();
  }
  unloader.join();
  for (auto& f : pending) (void)f.get();
  EXPECT_EQ(reg.stats("m").requests, 48u);
}

TEST(ModelRegistry, MergedQuantilesCoverEveryServingWindow) {
  // 200 fast requests, a hot reload, then 20 requests each stalled 20 ms
  // in the batcher: 9% of all requests took over 20 ms, so the p99 across
  // the reload must be one of them, while the p50 stays fast.
  ModelRegistry reg;
  const Tensor input = random_row(TinyMlp::kIn, 15);
  reg.load("m", tiny_package());
  for (int i = 0; i < 200; ++i) (void)reg.infer("m", input);
  reg.reload("m", tiny_package());
  {
    fault::ScopedFailpoint stall("serve.batcher.worker_stall", "delay(20000)");
    for (int i = 0; i < 20; ++i) (void)reg.infer("m", input);
  }
  const ServeStatsSnapshot s = reg.stats("m");
  EXPECT_EQ(s.requests, 220u);
  EXPECT_GE(s.p99_us, 20000.0);
  EXPECT_LT(s.p50_us, 20000.0);
}

TEST(ModelRegistry, PinnedSessionSubmitThrowsAfterUnload) {
  ModelRegistry reg;
  reg.load("m", tiny_package());
  const std::shared_ptr<InferenceSession> pinned = reg.session("m");
  ASSERT_NE(pinned, nullptr);
  ASSERT_TRUE(reg.unload("m"));
  // The pinned session outlives the unload but its queue is closed.
  EXPECT_THROW(pinned->submit(random_row(TinyMlp::kIn, 11)), std::runtime_error);
  EXPECT_EQ(reg.session("m"), nullptr);
}

TEST(ModelRegistry, ConcurrentMixedTrafficBitExact) {
  QuantizedModelPackage a = tiny_package();
  QuantizedModelPackage b = tiny8_package();
  const QuantizedModelRunner ref_a(a);
  const QuantizedModelRunner ref_b(b);

  ModelRegistry reg;
  reg.load("a", tiny_package());
  reg.load("b", tiny8_package());

  constexpr int kClients = 6, kPerClient = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(300 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        const bool use_a = rng.bernoulli(0.5);
        const Tensor x = random_row(
            TinyMlp::kIn, 1000 + static_cast<std::uint64_t>(c * kPerClient + i));
        const Tensor got = reg.infer(use_a ? "a" : "b", x);
        const Tensor want = use_a ? ref_a.forward(x) : ref_b.forward(x);
        for (std::int64_t j = 0; j < want.numel(); ++j) {
          if (got[j] != want[j]) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  std::uint64_t total = 0;
  for (const RegistryModelStats& m : reg.stats_all()) total += m.serve.requests;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kClients * kPerClient));
}

TEST(ModelRegistry, ConcurrentReloadNeverCorruptsResponses) {
  QuantizedModelPackage pkg = tiny_package();
  const QuantizedModelRunner ref(pkg);

  ModelRegistry reg;
  reg.load("m", tiny_package());
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(400 + static_cast<std::uint64_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        const Tensor x = random_row(TinyMlp::kIn, rng.next_u64());
        Tensor got;
        try {
          got = reg.infer("m", x);
        } catch (const std::exception&) {
          continue;  // mid-reload: clean rejection is the contract
        }
        const Tensor want = ref.forward(x);
        for (std::int64_t j = 0; j < want.numel(); ++j) {
          if (got[j] != want[j]) {
            wrong.fetch_add(1);
            break;
          }
        }
        served.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 6; ++r) {
    reg.unload("m");
    reg.load("m", tiny_package());
  }
  // Let traffic flow against the final incarnation before stopping.
  while (served.load() < 16) std::this_thread::yield();
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load(), 0);
}

TEST(ModelRegistry, ReloadSwapsNewWeightsWithoutUnloadGap) {
  QuantizedModelPackage a = tiny_package();
  QuantizedModelPackage b = tiny8_package();
  const QuantizedModelRunner ref_a(a);
  const QuantizedModelRunner ref_b(b);

  ModelRegistry reg;
  // On a name not yet serving, reload degrades to a plain load.
  reg.reload("m", tiny_package());
  const Tensor x = random_row(TinyMlp::kIn, 40);
  expect_bitwise_equal(ref_a.forward(x), reg.infer("m", x));

  // Swap in a differently quantized package: the new bits serve, the old
  // window's stats still count, and the name was routable throughout.
  reg.reload("m", tiny8_package());
  expect_bitwise_equal(ref_b.forward(x), reg.infer("m", x));
  EXPECT_EQ(reg.stats("m").requests, 2u);
}

TEST(ModelRegistry, ReloadRollbackLeavesOldModelServing) {
  vsq::fault::disable_all();
  QuantizedModelPackage pkg = tiny_package();
  const QuantizedModelRunner ref(pkg);

  ModelRegistry reg;
  reg.load("m", tiny_package());
  const Tensor x = random_row(TinyMlp::kIn, 41);
  expect_bitwise_equal(ref.forward(x), reg.infer("m", x));

  // Inject a failure at the last instant before the swap (replacement
  // session fully built): the reload must throw and the OLD model must
  // keep serving the same bits — no unloaded gap, no half-swap.
  {
    vsq::fault::ScopedFailpoint fp("serve.registry.reload", "error(injected reload fault)");
    EXPECT_THROW(reg.reload("m", tiny8_package()), vsq::fault::FailpointError);
  }
  EXPECT_TRUE(reg.contains("m"));
  expect_bitwise_equal(ref.forward(x), reg.infer("m", x));

  // Same contract when the replacement package itself is corrupt (the
  // validate failpoint models a torn archive read mid-reload).
  const std::string path =
      std::filesystem::temp_directory_path().string() + "/vsq_reload_rollback.vsqa";
  tiny8_package().save(path);
  {
    vsq::fault::ScopedFailpoint fp("package.load.validate", "error(corrupt package)");
    EXPECT_THROW(reg.reload_file("m", path), vsq::fault::FailpointError);
  }
  expect_bitwise_equal(ref.forward(x), reg.infer("m", x));
  std::remove(path.c_str());

  // With the faults gone the very same reload lands.
  QuantizedModelPackage pkg8 = tiny8_package();
  const QuantizedModelRunner ref8(pkg8);
  reg.reload("m", tiny8_package());
  expect_bitwise_equal(ref8.forward(x), reg.infer("m", x));
}

TEST(ModelRegistry, ReloadChurnWithInjectedFailuresNeverDropsService) {
  // The rollback guarantee under concurrency: clients hammer a model while
  // reloads churn, ~half of them failing by injection. Because reload
  // never unloads first, EVERY infer must succeed (no mid-reload rejection
  // window like unload+load has) and every row must be bit-exact — all
  // incarnations are the same deterministic package.
  vsq::fault::disable_all();
  QuantizedModelPackage pkg = tiny_package();
  const QuantizedModelRunner ref(pkg);

  ModelRegistry reg;
  reg.load("m", tiny_package());
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> refused{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(500 + static_cast<std::uint64_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        const Tensor x = random_row(TinyMlp::kIn, rng.next_u64());
        Tensor got;
        try {
          got = reg.infer("m", x);
        } catch (const std::exception&) {
          refused.fetch_add(1);
          continue;
        }
        const Tensor want = ref.forward(x);
        for (std::int64_t j = 0; j < want.numel(); ++j) {
          if (got[j] != want[j]) {
            wrong.fetch_add(1);
            break;
          }
        }
        served.fetch_add(1);
      }
    });
  }
  vsq::fault::enable("serve.registry.reload", "50%error(reload churn fault)");
  int failed_reloads = 0;
  for (int r = 0; r < 12; ++r) {
    try {
      reg.reload("m", tiny_package());
    } catch (const vsq::fault::FailpointError&) {
      ++failed_reloads;
    }
  }
  vsq::fault::disable_all();
  while (served.load() < 32) std::this_thread::yield();
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_GT(failed_reloads, 0) << "injection never fired; churn test proved nothing";
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(refused.load(), 0) << "reload opened a service gap";
  EXPECT_GT(served.load(), 0);
}

TEST(ModelRegistry, LoadFileRoundTripAndErrors) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string path = dir + "/vsq_registry_pkg.vsqa";
  QuantizedModelPackage pkg = tiny_package();
  pkg.save(path);
  const QuantizedModelRunner ref(pkg);

  ModelRegistry reg;
  reg.load_file("disk", path);
  const Tensor x = random_row(TinyMlp::kIn, 12);
  expect_bitwise_equal(ref.forward(x), reg.infer("disk", x));

  // Missing file: clean throw, registry untouched.
  EXPECT_THROW(reg.load_file("nope", dir + "/does_not_exist.vsqa"), std::runtime_error);
  EXPECT_FALSE(reg.contains("nope"));
  EXPECT_TRUE(reg.contains("disk"));
  std::remove(path.c_str());
}

TEST(ModelRegistry, PrintStatsListsEveryModelAndTotal) {
  ModelRegistry reg;
  reg.load("x", tiny_package());
  reg.load("y", tiny8_package());
  (void)reg.infer("x", random_row(TinyMlp::kIn, 13));
  std::ostringstream os;
  reg.print_stats(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("x"), std::string::npos);
  EXPECT_NE(out.find("y"), std::string::npos);
  EXPECT_NE(out.find("TOTAL"), std::string::npos);
}

}  // namespace
}  // namespace vsq
