#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/failpoint.h"
#include "util/archive.h"
#include "util/args.h"
#include "util/fp16.h"
#include "util/result_cache.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace vsq {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIndependentStreams) {
  Rng base(7);
  Rng s1 = base.split(1), s2 = base.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.next_u64() == s2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(5);
  double sum = 0, sum2 = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, LaplaceIsLongTailed) {
  Rng r(6);
  // Laplace kurtosis (6) exceeds Gaussian (3): check heavier tails.
  constexpr int n = 20000;
  int beyond3 = 0;
  for (int i = 0; i < n; ++i) {
    if (std::abs(r.laplace(1.0 / std::sqrt(2.0))) > 3.0) ++beyond3;  // unit variance
  }
  // P(|X|>3) for unit-variance Laplace ~ 1.4%, Gaussian ~ 0.27%.
  EXPECT_GT(beyond3, n * 0.005);
}

TEST(Rng, UniformU64NoModuloBias) {
  Rng r(8);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) ++counts[r.uniform_u64(7)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(9);
  const auto p = r.permutation(257);
  std::vector<bool> seen(257, false);
  for (const auto i : p) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

class Fp16RoundTrip : public ::testing::TestWithParam<float> {};

TEST_P(Fp16RoundTrip, ExactlyRepresentableSurvives) {
  const float x = GetParam();
  EXPECT_EQ(fp16_round(x), x);
}

INSTANTIATE_TEST_SUITE_P(ExactValues, Fp16RoundTrip,
                         ::testing::Values(0.0f, 1.0f, -1.0f, 0.5f, 2048.0f, 0.0009765625f,
                                           -65504.0f, 65504.0f, 6.103515625e-05f));

TEST(Fp16, RelativeErrorBounded) {
  Rng r(10);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(r.uniform(-1000.0, 1000.0));
    const float h = fp16_round(x);
    if (x != 0.0f) {
      EXPECT_LE(std::abs(h - x) / std::abs(x), 1.0f / 1024.0f)
          << "x=" << x << " fp16=" << h;  // half has 11 significand bits
    }
  }
}

TEST(Fp16, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(fp16_round(70000.0f)));
  EXPECT_TRUE(std::isinf(fp16_round(-70000.0f)));
}

TEST(Fp16, SubnormalsRepresentable) {
  const float tiny = 5.960464477539063e-08f;  // smallest positive subnormal half
  EXPECT_EQ(fp16_round(tiny), tiny);
  EXPECT_EQ(fp16_round(tiny / 4.0f), 0.0f);  // below half subnormal range
}

TEST(Fp16, RoundToNearestEven) {
  // 2049 is exactly between representable 2048 and 2050 -> ties to 2048.
  EXPECT_EQ(fp16_round(2049.0f), 2048.0f);
  EXPECT_EQ(fp16_round(2051.0f), 2052.0f);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"bb", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsNan) {
  EXPECT_EQ(Table::num(std::nan(""), 2), "-");
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
}

TEST(Archive, SaveLoadRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "vsq_test_archive.bin";
  Archive a;
  a.put("w", {2, 3}, {1, 2, 3, 4, 5, 6});
  a.put("b", {3}, {0.5f, -0.5f, 0.25f});
  a.save(path);
  const Archive l = Archive::load(path);
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.get("w").dims, (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(l.get("b").data[1], -0.5f);
  std::remove(path.c_str());
}

TEST(Archive, SaveIsCrashSafeAgainstTornWrites) {
  // Archive::save writes a temp file and rename()s it into place, so a
  // fault mid-save can NEVER leave a torn .vsqa at the destination: either
  // the old bytes survive intact or the new bytes land whole.
  namespace fs = std::filesystem;
  const std::string path = fs::temp_directory_path() / "vsq_test_torn.vsqa";
  const auto dir = fs::path(path).parent_path();
  const auto count_temps = [&] {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().filename().string().rfind("vsq_test_torn.vsqa.tmp", 0) == 0) ++n;
    }
    return n;
  };
  Archive good;
  good.put("w", {2, 2}, {1, 2, 3, 4});
  good.save(path);

  Archive update;
  update.put("w", {2, 2}, {9, 9, 9, 9});
  update.put("extra", {1}, {7});
  {
    // Fault in the entry stream: the temp file is torn at that point
    // (header written, entries cut short); the destination is untouched.
    vsq::fault::ScopedFailpoint fp("io.archive.save.entry", "error(disk gone)");
    EXPECT_THROW(update.save(path), vsq::fault::FailpointError);
  }
  Archive survived = Archive::load(path);  // old bytes, fully valid
  EXPECT_EQ(survived.get("w").data, (std::vector<float>{1, 2, 3, 4}));
  EXPECT_EQ(survived.size(), 1u);
  EXPECT_EQ(count_temps(), 0u);  // the torn temp was cleaned up

  {
    // Fault after the temp file completed but before the rename: still no
    // torn destination, still no leaked temp.
    vsq::fault::ScopedFailpoint fp("io.archive.save.rename", "error(killed pre-rename)");
    EXPECT_THROW(update.save(path), vsq::fault::FailpointError);
  }
  Archive survived2 = Archive::load(path);
  EXPECT_EQ(survived2.get("w").data, (std::vector<float>{1, 2, 3, 4}));
  EXPECT_EQ(count_temps(), 0u);

  // Fault cleared: the update lands atomically and whole.
  update.save(path);
  Archive fresh = Archive::load(path);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh.get("w").data, (std::vector<float>{9, 9, 9, 9}));
  EXPECT_EQ(count_temps(), 0u);
  std::remove(path.c_str());
}

TEST(Archive, LoadFailpointInjectsIoError) {
  const std::string path = std::filesystem::temp_directory_path() / "vsq_test_loadfp.vsqa";
  Archive a;
  a.put("w", {1}, {1});
  a.save(path);
  {
    vsq::fault::ScopedFailpoint fp("io.archive.load", "error(EIO)");
    EXPECT_THROW(Archive::load(path), vsq::fault::FailpointError);
  }
  EXPECT_EQ(Archive::load(path).size(), 1u);  // recovered once disarmed
  std::remove(path.c_str());
}

TEST(Archive, RejectsDimMismatch) {
  Archive a;
  EXPECT_THROW(a.put("x", {2, 2}, {1.0f}), std::invalid_argument);
}

TEST(Archive, MissingEntryThrows) {
  Archive a;
  EXPECT_THROW(a.get("nope"), std::out_of_range);
}

TEST(ResultCache, PersistsAcrossInstances) {
  const std::string path = std::filesystem::temp_directory_path() / "vsq_test_cache.tsv";
  std::remove(path.c_str());
  {
    ResultCache c(path);
    c.put("model|cfg", 76.25);
  }
  ResultCache c2(path);
  ASSERT_TRUE(c2.get("model|cfg").has_value());
  EXPECT_DOUBLE_EQ(*c2.get("model|cfg"), 76.25);
  std::remove(path.c_str());
}

TEST(ResultCache, GetOrComputeCaches) {
  const std::string path = std::filesystem::temp_directory_path() / "vsq_test_cache2.tsv";
  std::remove(path.c_str());
  ResultCache c(path);
  int calls = 0;
  const auto fn = [&] {
    ++calls;
    return 3.5;
  };
  EXPECT_DOUBLE_EQ(c.get_or_compute("k", fn), 3.5);
  EXPECT_DOUBLE_EQ(c.get_or_compute("k", fn), 3.5);
  EXPECT_EQ(calls, 1);
  std::remove(path.c_str());
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Layers call parallel_for inside code that benches may already have
  // parallelized; the pool must degrade gracefully, not deadlock.
  std::atomic<int> total{0};
  parallel_for(0, 4, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      parallel_for(0, 8, [&](std::size_t b, std::size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(total.load(), 4 * 8);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t b, std::size_t) {
                              if (b == 0) throw std::runtime_error("worker failure");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, FailedSpawnJoinsTheWorkersAlreadyStarted) {
  // The armed point throws right after the first worker starts. The
  // constructor must join that worker before rethrowing: a joinable
  // std::thread destroyed with the pool's vector would terminate the test.
  vsq::fault::ScopedFailpoint fp("thread_pool.spawn", "1*error(no more threads)");
  EXPECT_THROW(ThreadPool(4), vsq::fault::FailpointError);
}

// ---- Args (flag parser used by tools/ and examples) ----

std::vector<char*> argv_of(std::vector<std::string>& strings) {
  std::vector<char*> argv;
  argv.reserve(strings.size());
  for (auto& s : strings) argv.push_back(s.data());
  return argv;
}

TEST(Args, ParsesKeyValueAndFlags) {
  std::vector<std::string> raw{"prog", "--model=resnet", "--epochs=12", "--lr=0.05", "--verbose"};
  auto argv = argv_of(raw);
  const Args args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_str("model", "x"), "resnet");
  EXPECT_EQ(args.get_int("epochs", 0), 12);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.05);
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
}

TEST(Args, DefaultsWhenAbsent) {
  std::vector<std::string> raw{"prog"};
  auto argv = argv_of(raw);
  const Args args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_str("model", "bert"), "bert");
  EXPECT_EQ(args.get_int("epochs", 7), 7);
}

TEST(Args, RejectsNonFlagArgument) {
  std::vector<std::string> raw{"prog", "positional"};
  auto argv = argv_of(raw);
  EXPECT_THROW(Args(static_cast<int>(argv.size()), argv.data()), std::invalid_argument);
}

TEST(Args, ReportsUnusedFlags) {
  std::vector<std::string> raw{"prog", "--used=1", "--typo=2"};
  auto argv = argv_of(raw);
  const Args args(static_cast<int>(argv.size()), argv.data());
  args.get_int("used", 0);
  const auto unused = args.unused();
  EXPECT_EQ(unused.size(), 1u);
  EXPECT_TRUE(unused.count("typo"));
}

TEST(Args, ValueWithEqualsSign) {
  std::vector<std::string> raw{"prog", "--path=a=b"};
  auto argv = argv_of(raw);
  const Args args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_str("path", ""), "a=b");
}

TEST(Args, ThreadsFlagRejectsCountsAboveTheCap) {
  // Create the global pool first: set_global_threads can then only compare
  // against its size, so no value passed below can start a thread.
  const std::size_t have = ThreadPool::global().concurrency();
  const auto apply = [](std::string flag) {
    std::vector<std::string> raw{"prog", std::move(flag)};
    auto argv = argv_of(raw);
    return apply_threads_flag(Args(static_cast<int>(argv.size()), argv.data()));
  };
  EXPECT_FALSE(apply("--threads=1000000"));
  EXPECT_FALSE(apply("--threads=1025"));  // one above ThreadPool::kMaxThreads
  EXPECT_FALSE(apply("--threads=-1"));
  EXPECT_TRUE(apply("--threads=" + std::to_string(have)));
}

}  // namespace
}  // namespace vsq
