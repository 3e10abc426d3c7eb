// Kernel dispatch registry tests (src/kernels/): ISA probe coherence, the
// VSQ_ISA cap (including rejection of unknown values), bit-identity of
// every registered tier across the gemm/conv/runner surface — odd shapes,
// tail vectors, batched vs sequential — the VNNI int8 kernel and every
// act-quant and gelu tier pinned directly (exercised-or-skip), and the
// resolution-time binding contract: primitives resolve at load, never on
// the serving path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "kernels/isa.h"
#include "kernels/registry.h"
#include "models/zoo.h"
#include "quant/amax.h"
#include "quant/export.h"
#include "quant/int_gemm.h"
#include "quant/int_kernel.h"
#include "quant/quantized_tensor.h"
#include "tensor/gemm_kernel.h"
#include "util/rng.h"

namespace vsq {
namespace {

// Scoped VSQ_ISA override; restores the previous value (or unset) on exit.
class EnvIsa {
 public:
  explicit EnvIsa(const char* v) {
    if (const char* prev = std::getenv("VSQ_ISA")) prev_ = prev;
    if (v) {
      setenv("VSQ_ISA", v, 1);
    } else {
      unsetenv("VSQ_ISA");
    }
  }
  ~EnvIsa() {
    if (prev_) {
      setenv("VSQ_ISA", prev_->c_str(), 1);
    } else {
      unsetenv("VSQ_ISA");
    }
  }
  EnvIsa(const EnvIsa&) = delete;
  EnvIsa& operator=(const EnvIsa&) = delete;

 private:
  std::optional<std::string> prev_;
};

// Scoped VSQ_PACKED override (same contract as EnvIsa): "0" forces every
// resolution onto byte-width panels, unset restores the packed preference.
class EnvPacked {
 public:
  explicit EnvPacked(const char* v) {
    if (const char* prev = std::getenv("VSQ_PACKED")) prev_ = prev;
    if (v) {
      setenv("VSQ_PACKED", v, 1);
    } else {
      unsetenv("VSQ_PACKED");
    }
  }
  ~EnvPacked() {
    if (prev_) {
      setenv("VSQ_PACKED", prev_->c_str(), 1);
    } else {
      unsetenv("VSQ_PACKED");
    }
  }
  EnvPacked(const EnvPacked&) = delete;
  EnvPacked& operator=(const EnvPacked&) = delete;

 private:
  std::optional<std::string> prev_;
};

QuantSpec weight_spec(int bits, int scale_bits, int v) {
  QuantSpec s;
  s.enabled = true;
  s.fmt = QuantFormat{bits, true};
  s.granularity = Granularity::kPerVector;
  s.vector_size = v;
  s.scale_dtype = ScaleDtype::kTwoLevelInt;
  s.scale_fmt = QuantFormat{scale_bits, false};
  return s;
}

QuantSpec act_spec(int bits, int scale_bits, int v) {
  QuantSpec s = weight_spec(bits, scale_bits, v);
  s.dynamic = true;
  return s;
}

struct GemmOperands {
  QuantizedMatrix act;
  QuantizedMatrix wgt;
};

GemmOperands make_operands(std::int64_t rows, std::int64_t cols, std::int64_t k_out, int bits,
                           int scale_bits, int v, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(Shape{k_out, cols}), a(Shape{rows, cols});
  for (auto& val : w.span()) val = static_cast<float>(rng.normal());
  for (auto& val : a.span()) val = static_cast<float>(rng.laplace(0.5));
  GemmOperands ops;
  ops.wgt = quantize_weights_int(w, weight_spec(bits, scale_bits, v));
  const float amax = amax_per_tensor(a);
  const float gamma = scale_from_amax(amax, QuantFormat{bits, true}) /
                      static_cast<float>(QuantFormat{scale_bits, false}.qmax());
  ops.act = quantize_activations_int(a, act_spec(bits, scale_bits, v), amax, gamma);
  return ops;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

// ---- ISA probe and the VSQ_ISA cap ----

TEST(Isa, FeatureBitsAreCoherent) {
  const isa::Features& f = isa::features();
  // Tier implications: VNNI requires the AVX-512 core set, which requires
  // AVX2 on every real CPU (and on every CPU the kernels target).
  if (f.avx512_vnni) {
    EXPECT_TRUE(f.avx512_core);
  }
  if (f.avx512_core) {
    EXPECT_TRUE(f.avx2);
  }
  const isa::Tier top = isa::max_cpu_tier();
  EXPECT_EQ(top == isa::Tier::kAvx512Vnni, f.avx512_vnni);
  if (top == isa::Tier::kPortable) {
    EXPECT_FALSE(f.avx2);
  }
  EXPECT_FALSE(isa::summary().empty());
}

TEST(Isa, TierNames) {
  EXPECT_STREQ(isa::tier_name(isa::Tier::kPortable), "portable");
  EXPECT_STREQ(isa::tier_name(isa::Tier::kAvx2), "avx2");
  EXPECT_STREQ(isa::tier_name(isa::Tier::kAvx512Vnni), "avx512_vnni");
}

TEST(Isa, EnvCapParsesEveryDocumentedSpelling) {
  {
    EnvIsa e(nullptr);
    EXPECT_FALSE(isa::env_cap().has_value());
  }
  for (const char* v : {"native", "auto", ""}) {
    EnvIsa e(v);
    EXPECT_FALSE(isa::env_cap().has_value()) << v;
  }
  for (const char* v : {"portable", "scalar"}) {
    EnvIsa e(v);
    EXPECT_EQ(isa::env_cap(), isa::Tier::kPortable) << v;
  }
  {
    EnvIsa e("avx2");
    EXPECT_EQ(isa::env_cap(), isa::Tier::kAvx2);
  }
  for (const char* v : {"avx512_vnni", "vnni", "avx512"}) {
    EnvIsa e(v);
    EXPECT_EQ(isa::env_cap(), isa::Tier::kAvx512Vnni) << v;
  }
  {
    EnvIsa e("portable");
    EXPECT_EQ(isa::effective_cap(), isa::Tier::kPortable);
  }
}

TEST(Isa, UnknownIsaRejectedEverywhere) {
  // Fixtures first: PTQ calibration itself resolves kernels and would
  // (correctly) throw under a bad cap before reaching the assertions.
  const GemmOperands ops = make_operands(2, 32, 8, 8, 6, 8, 11);
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  EnvIsa e("pentium3");
  // Directly...
  EXPECT_THROW((void)isa::env_cap(), std::invalid_argument);
  try {
    (void)isa::env_cap();
    FAIL() << "env_cap did not throw";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("VSQ_ISA"), std::string::npos);
  }
  // ...through kernel resolution inside a per-call int_gemm pack...
  EXPECT_THROW((void)int_gemm(ops.act, ops.wgt, -1), std::invalid_argument);
  // ...and at package load: a typo must fail loudly, not serve portable.
  EXPECT_THROW((void)QuantizedModelRunner(pkg), std::invalid_argument);
}

// ---- Forced-tier bit-identity: every tier computes the same bits ----

struct TierCase {
  const char* env;  // nullptr = native (no cap)
  bool available() const {
    if (env == nullptr) return true;
    const std::string v(env);
    if (v == "portable") return true;
    if (v == "avx2") return isa::features().avx2;
    return isa::features().avx512_vnni;
  }
};

const TierCase kTiers[] = {{"portable"}, {"avx2"}, {"avx512_vnni"}, {nullptr}};

TEST(ForcedTier, GemmBitIdenticalAcrossTiers) {
  // Shapes chosen for the corners dispatch must not change: prime cols
  // (every row ends in a short tail vector), odd V (the madd interleave is
  // ineligible), and an even power-of-two shape (every SIMD kernel
  // eligible). Bits 4 and 8 pick the sub-byte or the byte-width half of
  // the preference list; scale-product rounding on and off.
  struct Shape {
    std::int64_t rows, cols, k_out;
    int v;
  };
  const Shape shapes[] = {{5, 29, 9, 7}, {4, 64, 32, 16}, {3, 33, 11, 4}};
  int checked = 0;
  for (const Shape& s : shapes) {
    for (const int bits : {4, 8}) {
      for (const int sp_bits : {-1, 6}) {
        const GemmOperands ops = make_operands(
            s.rows, s.cols, s.k_out, bits, 6, s.v,
            static_cast<std::uint64_t>(s.cols * 1000 + bits * 10 + (sp_bits > 0)));
        std::optional<Tensor> baseline;
        for (const TierCase& tier : kTiers) {
          if (!tier.available()) continue;
          EnvIsa e(tier.env);
          const Tensor y = int_gemm(ops.act, ops.wgt, sp_bits);
          if (!baseline) {
            baseline.emplace(y);  // the portable tier, always first
          } else {
            expect_bitwise_equal(*baseline, y,
                                 std::string("tier ") + (tier.env ? tier.env : "native") +
                                     " cols=" + std::to_string(s.cols) +
                                     " bits=" + std::to_string(bits));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ForcedTier, ConvLayersBitIdenticalAcrossTiers) {
  MacConfig mac = MacConfig::parse("4/8/6/10");
  mac.act_unsigned = true;
  const QuantizedModelPackage pkg = tiny_conv_package(mac);
  Rng rng(77);
  int convs = 0;
  for (const auto& [name, l] : pkg.layers) {
    if (l.kind != PackagedLayerKind::kConv) continue;
    ++convs;
    Tensor x(Shape{2, 8, 8, l.conv_in_channels()});
    for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-1.5, 1.5));
    std::optional<Tensor> baseline;
    for (const TierCase& tier : kTiers) {
      if (!tier.available()) continue;
      EnvIsa e(tier.env);
      const Tensor y = run_packaged_conv_layer(l, x);
      if (!baseline) {
        baseline.emplace(y);
      } else {
        expect_bitwise_equal(*baseline, y,
                             name + " tier " + (tier.env ? tier.env : "native"));
      }
    }
  }
  EXPECT_GT(convs, 0);
}

TEST(ForcedTier, RunnerBatchedVsSequentialBitIdenticalPerTier) {
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  Rng rng(91);
  Tensor batch(Shape{6, TinyMlp::kIn});
  for (auto& v : batch.span()) v = static_cast<float>(rng.normal());
  std::optional<Tensor> baseline;
  for (const TierCase& tier : kTiers) {
    if (!tier.available()) continue;
    EnvIsa e(tier.env);
    const QuantizedModelRunner runner(pkg);  // resolves under this cap
    const Tensor all = runner.forward(batch);
    // Row r of the batched forward must equal a single-row forward.
    for (std::int64_t r = 0; r < batch.shape()[0]; ++r) {
      Tensor one(Shape{1, TinyMlp::kIn});
      for (std::int64_t c = 0; c < TinyMlp::kIn; ++c) one.at2(0, c) = batch.at2(r, c);
      const Tensor yr = runner.forward(one);
      for (std::int64_t c = 0; c < runner.out_features(); ++c) {
        ASSERT_EQ(all.at2(r, c), yr.at2(0, c))
            << "row " << r << " tier " << (tier.env ? tier.env : "native");
      }
    }
    if (!baseline) {
      baseline.emplace(all);
    } else {
      expect_bitwise_equal(*baseline, all,
                           std::string("runner tier ") + (tier.env ? tier.env : "native"));
    }
  }
}

TEST(ForcedTier, ResolutionBindsAtLoadNotAtForward) {
  // A runner built under a cap keeps its resolved kernels after the cap is
  // lifted: dispatch is a load-time decision. Forwards under a different
  // (even invalid) VSQ_ISA neither re-resolve nor fail.
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  Rng rng(93);
  Tensor x(Shape{2, TinyMlp::kIn});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  std::optional<QuantizedModelRunner> runner;
  {
    EnvIsa e("portable");
    runner.emplace(pkg);
    for (const auto& [name, prim] : runner->primitives()) {
      EXPECT_STREQ(prim.isa_name(), "portable") << name;
    }
  }
  const Tensor y_capped = runner->forward(x);
  const Tensor y_uncapped = [&] {
    EnvIsa e("pentium3");  // would throw if forward resolved anything
    return runner->forward(x);
  }();
  expect_bitwise_equal(y_capped, y_uncapped, "load-time binding");
  // The activation quantizer binds at load as well: the capped runner kept
  // the portable loop, while a runner built without a cap binds the top
  // tier the CPU runs.
  for (const auto& [name, prim] : runner->primitives()) {
    EXPECT_STREQ(prim.quant_name(), "portable") << name;
  }
  EnvIsa native(nullptr);
  const QuantizedModelRunner uncapped(pkg);
  for (const auto& [name, prim] : uncapped.primitives()) {
    EXPECT_STREQ(prim.quant_name(), kernels::resolve_act_quant().name) << name;
  }
  EXPECT_EQ(uncapped.gelu_name(), nullptr) << "the MLP program has no GELU step";

  // The sequence program's GELU binds at load the same way. (At this
  // geometry attention's fp32 products take gemm.cpp's direct loops, so
  // no fp32 microkernel is looked up per forward either.)
  const QuantizedModelPackage bert = tiny_bert_package(MacConfig::parse("4/8/6/10"));
  Tensor tokens(Shape{2, 9});
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    tokens[i] = static_cast<float>((7 * i + 3) % 50);
  }
  std::optional<QuantizedModelRunner> bert_capped;
  {
    EnvIsa e("portable");
    bert_capped.emplace(bert);
  }
  EXPECT_STREQ(bert_capped->gelu_name(), "portable");
  const Tensor t_capped = [&] {
    EnvIsa e("pentium3");
    return bert_capped->forward(tokens);
  }();
  const QuantizedModelRunner bert_native(bert);
  EXPECT_STREQ(bert_native.gelu_name(), kernels::resolve_gelu().name);
  expect_bitwise_equal(t_capped, bert_native.forward(tokens), "gelu tier");
}

// ---- The act-quant kernel: every tier equals the portable reference ----
//
// Each registered implementation the CPU can run is pinned by name and fed
// the same rows as the portable loop; codes and scales must match exactly.

std::vector<const kernels::ActQuantImpl*> act_quant_tiers() {
  std::vector<const kernels::ActQuantImpl*> tiers;
  for (const char* name : {"portable", "avx2"}) {
    if (const kernels::ActQuantImpl* impl = kernels::find_act_quant_impl(name)) {
      tiers.push_back(impl);
    }
  }
  return tiers;
}

std::vector<kernels::VecRange> vec_ranges(const VectorLayout& layout) {
  std::vector<kernels::VecRange> vr;
  for (std::int64_t v = 0; v < layout.vectors_per_row(); ++v) {
    const auto [c0, c1] = layout.col_range(v);
    vr.push_back({static_cast<std::int32_t>(c0), static_cast<std::int32_t>(c1 - c0)});
  }
  return vr;
}

// Runs row x through every tier; returns how many SIMD tiers were compared.
int expect_act_quant_tiers_match(const std::vector<float>& x, const VectorLayout& layout,
                                 const kernels::ActQuantParams& p, const std::string& what) {
  const std::vector<kernels::VecRange> vr = vec_ranges(layout);
  const auto nvec = static_cast<std::int64_t>(vr.size());
  const std::size_t cols = x.size();
  std::vector<std::int16_t> q_ref(cols, -1);
  std::vector<std::uint16_t> sq_ref(vr.size(), 0xFFFF);
  kernels::portable_act_quant().fn(x.data(), vr.data(), nvec, p, q_ref.data(), sq_ref.data());
  int compared = 0;
  for (const kernels::ActQuantImpl* impl : act_quant_tiers()) {
    if (impl->tier == isa::Tier::kPortable) continue;
    std::vector<std::int16_t> q(cols, -1);
    std::vector<std::uint16_t> sq(vr.size(), 0xFFFF);
    impl->fn(x.data(), vr.data(), nvec, p, q.data(), sq.data());
    for (std::size_t v = 0; v < vr.size(); ++v) {
      EXPECT_EQ(sq[v], sq_ref[v]) << impl->name << " " << what << " vector " << v;
    }
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(q[c], q_ref[c]) << impl->name << " " << what << " col " << c << " x=" << x[c];
    }
    ++compared;
  }
  return compared;
}

kernels::ActQuantParams act_params(int bits, bool is_signed, int scale_bits, bool scale_signed,
                                   float gamma) {
  return {{bits, is_signed}, {scale_bits, scale_signed}, gamma};
}

TEST(ActQuant, PortableTierMatchesTheMaterializedQuantizer) {
  // The portable tier IS quantize_activations_int's per-row pass: amax ->
  // vector_scale_code -> quantize_code, element by element.
  Rng rng(62);
  Tensor a(Shape{3, 40});
  for (auto& v : a.span()) v = static_cast<float>(rng.normal());
  const QuantSpec spec = act_spec(8, 6, 16);
  const float gamma = 0.0021f;
  const QuantizedMatrix m = quantize_activations_int(a, spec, 0.0f, gamma);
  const std::vector<kernels::VecRange> vr = vec_ranges(m.layout);
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::size_t v = 0; v < vr.size(); ++v) {
      float amax = 0.0f;
      for (std::int32_t c = 0; c < vr[v].len; ++c) {
        amax = std::max(amax, std::abs(a.at2(r, vr[v].c0 + c)));
      }
      const std::uint16_t sq = kernels::vector_scale_code(amax, 127, gamma, 63);
      EXPECT_EQ(m.int_scale(r, static_cast<std::int64_t>(v)), sq);
      for (std::int32_t c = 0; c < vr[v].len; ++c) {
        EXPECT_EQ(m.at(r, vr[v].c0 + c),
                  quantize_value(a.at2(r, vr[v].c0 + c), static_cast<float>(sq) * gamma,
                                 spec.fmt));
      }
    }
  }
}

TEST(ActQuant, EveryTierMatchesPortableOnEdgeInputs) {
  if (act_quant_tiers().size() < 2) GTEST_SKIP() << "no SIMD act-quant tier on this CPU";
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  int compared = 0;
  const auto check = [&](const std::vector<float>& x, const VectorLayout& layout,
                         const kernels::ActQuantParams& p, const std::string& what) {
    compared += expect_act_quant_tiers_match(x, layout, p, what);
  };
  const auto one_vector = [](std::int64_t cols, int v) { return VectorLayout{cols, v, 0}; };

  // Exact .5 ties after scaling: amax 79.375 with gamma 2^-6 gives
  // s = 0.625 and sq = 40, so eff = 0.625 and every x = (k + 0.5) * 0.625
  // lands on a tie (half-even: 2.5 -> 2, 3.5 -> 4, -0.5 -> -0).
  std::vector<float> ties{79.375f};
  for (int k = -8; k < 7; ++k) ties.push_back((static_cast<float>(k) + 0.5f) * 0.625f);
  check(ties, one_vector(16, 16), act_params(8, true, 6, false, 0.015625f), "ties");
  {
    std::vector<std::int16_t> q(16);
    std::uint16_t sq = 0;
    const std::vector<kernels::VecRange> vr = vec_ranges(one_vector(16, 16));
    kernels::portable_act_quant().fn(ties.data(), vr.data(), 1,
                                     act_params(8, true, 6, false, 0.015625f), q.data(), &sq);
    EXPECT_EQ(sq, 40);
    EXPECT_EQ(q[1 + 8 + 2], 2);  // 2.5 -> 2
    EXPECT_EQ(q[1 + 8 + 3], 4);  // 3.5 -> 4
  }

  // Signed zeros, denormals, infinities and NaN, in the amax position and
  // beside it, under signed and unsigned formats.
  const std::vector<float> specials{0.0f,  -0.0f,    kDenorm, -kDenorm, 1e-40f, -3e-39f,
                                    kInf,  -kInf,    kNaN,    -kNaN,    1.5f,   -2.25f,
                                    1e19f, -1e19f,   3e9f,    -7e9f,    0.75f};
  for (const bool sgn : {true, false}) {
    check(specials, one_vector(17, 17), act_params(8, sgn, 6, false, 0.01f), "specials");
    check(specials, one_vector(17, 8), act_params(4, sgn, 4, false, 0.3f), "specials/v8");
  }
  // NaN-only, NaN beside zeros, and denormal-only vectors.
  check(std::vector<float>(16, kNaN), one_vector(16, 16), act_params(8, true, 6, false, 0.01f),
        "all-nan");
  check({kNaN, 0.0f, -0.0f, kNaN, 0.0f}, one_vector(5, 5), act_params(6, true, 5, false, 0.1f),
        "nan+zeros");
  check(std::vector<float>(9, kDenorm), one_vector(9, 9), act_params(8, true, 8, false, 1e-44f),
        "denormals");

  // |x / scale| >= 2^31 and >= 2^63: a gamma far below the row's scale
  // pins sq at its maximum, so the element ratios explode.
  std::vector<float> wide(24);
  for (std::size_t c = 0; c < wide.size(); ++c) {
    wide[c] = (c % 2 == 0 ? 1.0f : -1.0f) * static_cast<float>(c + 1) * 0.37f;
  }
  check(wide, one_vector(24, 16), act_params(8, true, 6, false, 5.3e-12f), ">=2^31");
  check(wide, one_vector(24, 16), act_params(8, true, 6, false, 1e-30f), ">=2^63");
  check(wide, one_vector(24, 16), act_params(10, false, 9, false, 1e-30f), ">=2^63/u10");

  // All-zero vectors, and gamma = 0 (and negative) on a live row.
  check(std::vector<float>(33, 0.0f), one_vector(33, 16), act_params(8, true, 6, false, 0.01f),
        "zeros");
  check(wide, one_vector(24, 16), act_params(8, true, 6, false, 0.0f), "gamma=0");
  check(wide, one_vector(24, 16), act_params(8, true, 6, false, -1.0f), "gamma<0");
  EXPECT_GT(compared, 0);
}

TEST(ActQuant, EveryTierMatchesPortableOnSeededRandomRows) {
  if (act_quant_tiers().size() < 2) GTEST_SKIP() << "no SIMD act-quant tier on this CPU";
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,  -0.0f, std::numeric_limits<float>::denorm_min(),
                            kInf,  -kInf, std::numeric_limits<float>::quiet_NaN(),
                            1e19f, -3e9f};
  Rng rng(20261019);
  int compared = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    // Vector lengths 1-33; a channel block below cols makes ragged vectors
    // mid-row, and a cols that V does not divide a ragged last vector.
    const int v = 1 + static_cast<int>(rng.uniform_u64(33));
    const std::int64_t blocks = 1 + static_cast<std::int64_t>(rng.uniform_u64(3));
    const std::int64_t block = 1 + static_cast<std::int64_t>(rng.uniform_u64(70));
    const VectorLayout layout{blocks * block, v, blocks > 1 ? block : 0};
    const int bits = 2 + static_cast<int>(rng.uniform_u64(9));        // 2..10
    const int scale_bits = 2 + static_cast<int>(rng.uniform_u64(8));  // 2..9
    const bool sgn = rng.bernoulli(0.5);
    const kernels::QuantFormatLite fmt{bits, sgn};
    const double mag = std::exp(rng.uniform(-30.0, 30.0));
    std::vector<float> x(static_cast<std::size_t>(layout.cols));
    float amax = 0.0f;
    for (float& e : x) {
      e = static_cast<float>(rng.normal() * mag);
      if (rng.bernoulli(0.02)) e = specials[rng.uniform_u64(std::size(specials))];
      if (!std::isnan(e)) amax = std::max(amax, std::abs(e));
    }
    if (rng.bernoulli(0.05)) {
      std::fill(x.begin(), x.begin() + std::min<std::int64_t>(v, layout.cols), 0.0f);
    }
    // Calibrated-style gamma (the row's amax spread over the scale range),
    // perturbed across three decades either way; sometimes 0 or denormal.
    float gamma = amax / static_cast<float>(fmt.qmax()) /
                  static_cast<float>(kernels::QuantFormatLite{scale_bits, false}.qmax()) *
                  static_cast<float>(std::exp(rng.uniform(-7.0, 7.0)));
    if (rng.bernoulli(0.03)) gamma = 0.0f;
    if (rng.bernoulli(0.02)) gamma = std::numeric_limits<float>::denorm_min();
    compared += expect_act_quant_tiers_match(
        x, layout, act_params(bits, sgn, scale_bits, rng.bernoulli(0.1), gamma),
        "trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(compared, 0);
}

// ---- The gelu kernel: every tier equals the scalar definition ----
//
// Each registered tier the CPU can run is pinned by name and compared with
// kernels::gelu_element (the fdlibm tanhf port) bit for bit, any NaN
// matching any NaN. The inputs cover a strided sweep of all 2^32 bit
// patterns, windows around every branch point of the port, the IEEE
// specials, and every tail length of the 8-lane tier.

std::vector<const kernels::GeluImpl*> gelu_tiers() {
  std::vector<const kernels::GeluImpl*> tiers;
  for (const char* name : {"portable", "avx2"}) {
    if (const kernels::GeluImpl* impl = kernels::find_gelu_impl(name)) tiers.push_back(impl);
  }
  return tiers;
}

bool same_bits(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

// Runs xs through every tier; returns the number of mismatches (the first
// few are reported).
std::int64_t gelu_tier_mismatches(const std::vector<float>& xs, const std::string& what) {
  std::int64_t bad = 0;
  std::vector<float> y(xs.size());
  for (const kernels::GeluImpl* impl : gelu_tiers()) {
    impl->fn(xs.data(), static_cast<std::int64_t>(xs.size()), y.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const float ref = kernels::gelu_element(xs[i]);
      if (same_bits(y[i], ref)) continue;
      if (++bad <= 5) {
        ADD_FAILURE() << impl->name << " " << what << ": gelu(" << std::hexfloat << xs[i]
                      << ") = " << y[i] << ", scalar " << ref;
      }
    }
  }
  return bad;
}

// The positive x whose tanh argument sqrt(2/pi) (x + 0.044715 x^3) is
// nearest `u`, by bisection over positive float bit patterns (the
// argument grows with x).
float gelu_x_for_tanh_arg(float u) {
  std::uint32_t lo = 0, hi = 0x7f000000u;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const float x = std::bit_cast<float>(mid);
    const float arg = kernels::kGeluSqrt2OverPi * (x + kernels::kGeluCubic * x * x * x);
    (arg < u ? lo : hi) = mid;
  }
  return std::bit_cast<float>(hi);
}

TEST(Gelu, EveryTierMatchesTheScalarDefinition) {
  ASSERT_NE(kernels::find_gelu_impl("portable"), nullptr);
  if (isa::features().avx2) {
    ASSERT_NE(kernels::find_gelu_impl("avx2"), nullptr);
  }
  std::vector<float> xs;

  // A strided sweep over all 2^32 bit patterns (the stride is odd, so
  // every exponent and both signs are visited).
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 2053) {
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  }
  EXPECT_EQ(gelu_tier_mismatches(xs, "sweep"), 0);

  // +-2048 ulps of x around each branch point of the port, on both signs.
  // For tanh's |u|: 2^-55 (tanh(u) = u), 1 (which expm1 argument) and 22
  // (saturation). For expm1's argument w = -+2|u|: 2^-25 (expm1(w) = w),
  // 0.5 ln2 and 1.5 ln2 (k = 0 / -1 / -2), the k = -2/-3 rounding edge at
  // 2.5 ln2, and the k = 22/23 and 56/57 edges (22.5 and 56.5 ln2).
  const float ln2 = std::log(2.0f);
  const float branch_u[] = {std::ldexp(1.0f, -55), 1.0f, 22.0f, std::ldexp(1.0f, -26),
                            0.25f * ln2, 0.75f * ln2, 1.25f * ln2, 11.25f * ln2,
                            28.25f * ln2};
  xs.clear();
  for (const float u : branch_u) {
    const auto center = std::bit_cast<std::int32_t>(gelu_x_for_tanh_arg(u));
    for (std::int32_t d = -2048; d <= 2048; ++d) {
      const float x = std::bit_cast<float>(center + d);
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  EXPECT_EQ(gelu_tier_mismatches(xs, "branch windows"), 0);

  // Signed zeros, denormals, infinities, NaNs (quiet and signalling, both
  // signs), and x whose cube overflows (|x| beyond ~2e13).
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kMax = std::numeric_limits<float>::max();
  xs = {0.0f, -0.0f, kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(), std::numeric_limits<float>::signaling_NaN(),
        std::bit_cast<float>(0xffc00001u), kMax, -kMax, 2e13f, -2e13f, 1e20f, -1e20f,
        std::numeric_limits<float>::min(), -std::numeric_limits<float>::min()};
  for (std::uint32_t b = 1; b < 0x00800000u; b = b * 3 + 1) {
    xs.push_back(std::bit_cast<float>(b));
    xs.push_back(-std::bit_cast<float>(b));
  }
  EXPECT_EQ(gelu_tier_mismatches(xs, "specials"), 0);

  // Every length 1..17, so each tail of the 8-lane tier runs; nothing
  // past n is written.
  Rng rng(57);
  std::vector<float> src(17);
  for (float& v : src) v = static_cast<float>(rng.normal(0.0, 4.0));
  for (const kernels::GeluImpl* impl : gelu_tiers()) {
    for (std::int64_t n = 1; n <= 17; ++n) {
      std::vector<float> y(static_cast<std::size_t>(n) + 8, -7.0f);
      impl->fn(src.data(), n, y.data());
      for (std::size_t i = 0; i < y.size(); ++i) {
        const float want = i < static_cast<std::size_t>(n) ? kernels::gelu_element(src[i]) : -7.0f;
        EXPECT_TRUE(same_bits(y[i], want)) << impl->name << " n=" << n << " i=" << i;
      }
    }
  }
}

// ---- The fp32 GEMM microkernel rides the same registry ----

TEST(ForcedTier, FpMicroHonorsCap) {
  {
    EnvIsa e("portable");
    EXPECT_FALSE(gemm_kernel_uses_avx2());
  }
  {
    EnvIsa e(nullptr);
    const isa::Features& f = isa::features();
    EXPECT_EQ(gemm_kernel_uses_avx2(), f.avx2 && f.fma);
  }
}

// ---- Resolution caching and the steady-state contract ----

TEST(Registry, SameDescriptorResolvesToSameImpl) {
  const GemmOperands ops = make_operands(3, 64, 16, 8, 6, 16, 21);
  const VectorLayout layout = ops.act.layout;
  const detail::IntActAttrs attrs = detail::IntActAttrs::of(ops.act);
  const detail::IntWeightPanels p1(ops.wgt, layout, attrs);
  const detail::IntWeightPanels p2(ops.wgt, layout, attrs);
  // Resolution walks one fixed list: two packs of the same descriptor
  // bind the same built-in implementation object.
  EXPECT_EQ(&p1.panel_impl(), &p2.panel_impl());
  EXPECT_EQ(&p1.acc_impl(), &p2.acc_impl());
}

TEST(Registry, SteadyStateForwardsResolveNothing) {
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  const QuantizedModelRunner runner(pkg);
  Rng rng(31);
  Tensor x(Shape{4, TinyMlp::kIn});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  (void)runner.forward(x);  // settle any lazily-resolved state
  const std::uint64_t resolved = kernels::dispatch_resolutions_total();
  const std::uint64_t packed = detail::panels_packed_total();
  for (int i = 0; i < 8; ++i) (void)runner.forward(x);
  EXPECT_EQ(kernels::dispatch_resolutions_total(), resolved);
  EXPECT_EQ(detail::panels_packed_total(), packed);
}

TEST(Registry, PanelAccFallsBackToPortableOnWideScaleProducts) {
  kernels::KernelDesc desc;
  desc.quant.full_bits = 20;
  const kernels::PanelAccImpl& narrow = kernels::resolve_panel_acc(desc);
  if (isa::features().avx2 && !isa::env_cap().has_value()) {
    EXPECT_STREQ(narrow.name, "avx2");
  }
  // 32-bit scale products overflow the avx2 impl's epi32 lanes; the
  // registry must hand back the 64-bit-safe portable loop.
  desc.quant.full_bits = 32;
  EXPECT_STREQ(kernels::resolve_panel_acc(desc).name, "portable");
}

TEST(Registry, IntPanelResolutionTable) {
  // The preference list, pinned: V=16 descriptors (odd = a 27-column row,
  // vectors of 16 and 11) resolved under every available cap, with the
  // packed preference on and under VSQ_PACKED=0. The expected column is
  // the effective cap's, so a host without AVX-512 VNNI checks the avx2
  // column natively. On a VNNI host the table reaches all eight kernels.
  struct Row {
    const char* what;
    int wgt_bits, act_bits;
    bool act_unsigned, even;
    const char* want[3][2];  // [cap: portable, avx2, avx512_vnni][packed, VSQ_PACKED=0]
  };
  const Row rows[] = {
      {"s4/s8/even", 4, 8, false, true,
       {{"portable_sub", "portable"}, {"avx2_sub4_madd", "avx2_madd"},
        {"avx512_vnni_sub4", "avx512_vnni"}}},
      {"s4/u8/even", 4, 8, true, true,
       {{"portable_sub", "portable"}, {"avx2_sub4_madd", "avx2_madd"},
        {"avx2_sub4_madd", "avx512_vnni"}}},
      {"s4/s8/odd", 4, 8, false, false,
       {{"portable_sub", "portable"}, {"avx2_sub", "avx2"}, {"avx512_vnni_sub4", "avx512_vnni"}}},
      {"s4/u8/odd", 4, 8, true, false,
       {{"portable_sub", "portable"}, {"avx2_sub", "avx2"}, {"avx2_sub", "avx512_vnni"}}},
      {"s6/u8/even", 6, 8, true, true,
       {{"portable_sub", "portable"}, {"avx2_sub", "avx2_madd"}, {"avx2_sub", "avx512_vnni"}}},
      {"s8/s8/even", 8, 8, false, true,
       {{"portable", "portable"}, {"avx2_madd", "avx2_madd"}, {"avx512_vnni", "avx512_vnni"}}},
      {"s8/s8/odd", 8, 8, false, false,
       {{"portable", "portable"}, {"avx2", "avx2"}, {"avx512_vnni", "avx512_vnni"}}},
      {"s4/s10/even", 4, 10, false, true,
       {{"portable_sub", "portable"}, {"avx2_sub4_madd", "avx2_madd"},
        {"avx2_sub4_madd", "avx2_madd"}}},
  };
  std::set<std::string> reached;
  for (const TierCase& tier : kTiers) {
    if (!tier.available()) continue;
    EnvIsa e(tier.env);
    const auto cap = static_cast<std::size_t>(isa::effective_cap());
    for (const int packed : {1, 0}) {
      EnvPacked p(packed ? nullptr : "0");
      for (const Row& r : rows) {
        kernels::KernelDesc d;
        d.shape = {16, r.even};
        d.quant.act = {r.act_bits, !r.act_unsigned};
        d.quant.wgt = {r.wgt_bits, true};
        d.quant.full_bits = 16;
        const char* got = kernels::resolve_int_panel(d).name;
        EXPECT_STREQ(got, r.want[cap][packed ? 0 : 1])
            << r.what << " VSQ_ISA=" << (tier.env ? tier.env : "native")
            << (packed ? "" : " VSQ_PACKED=0");
        reached.insert(got);
      }
    }
  }
  std::size_t built_in = 0;
  for (const char* name : {"avx512_vnni_sub4", "avx2_sub4_madd", "avx2_sub", "portable_sub",
                           "avx512_vnni", "avx2_madd", "avx2", "portable"}) {
    if (kernels::find_int_panel_impl(name) != nullptr) ++built_in;
  }
  EXPECT_EQ(reached.size(), built_in);
}

// ---- The VNNI int8 kernel, pinned directly ----
//
// Resolution binds the byte-width VNNI kernel only where no sub-byte
// kernel is eligible (8-bit weights, or VSQ_PACKED=0), so these tests pin
// the built-in implementation by name: eligibility must draw the
// documented boundaries, and the kernel must reproduce the scalar dot
// products exactly on a hand-packed panel.

kernels::KernelDesc vnni_desc(int act_bits, bool act_signed, std::int64_t max_len) {
  kernels::KernelDesc d;
  d.shape = {max_len, max_len % 2 == 0};
  d.quant.act = {act_bits, act_signed};
  d.quant.wgt = {8, true};
  d.quant.full_bits = 12;
  return d;
}

TEST(Vnni, EligibilityBoundaries) {
  const kernels::IntPanelImpl* impl = kernels::find_int_panel_impl("avx512_vnni");
  if (impl == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX512-VNNI; kernel not registered";
  }
  ASSERT_NE(impl->eligible, nullptr);
  EXPECT_EQ(impl->layout, kernels::PanelLayout::kQuadInt8);
  EXPECT_EQ(impl->row_image, kernels::RowImage::kBiasedU8);
  // Signed 8-bit acts bias to u8 exactly; unsigned 8-bit fit directly.
  EXPECT_TRUE(impl->eligible(vnni_desc(8, true, 16)));
  EXPECT_TRUE(impl->eligible(vnni_desc(8, false, 16)));
  // 9+ signed bits cannot bias into u8.
  EXPECT_FALSE(impl->eligible(vnni_desc(9, true, 16)));
  EXPECT_FALSE(impl->eligible(vnni_desc(10, true, 16)));
  // 9-bit unsigned acts exceed u8 as well.
  EXPECT_FALSE(impl->eligible(vnni_desc(9, false, 16)));
  // The non-saturating vpdpbusd accumulator: enormous vectors overflow
  // the biased-u8 worst case and must be rejected.
  EXPECT_FALSE(impl->eligible(vnni_desc(8, true, std::int64_t{1} << 24)));
}

TEST(Vnni, QuadKernelMatchesScalarDotProducts) {
  const kernels::IntPanelImpl* impl = kernels::find_int_panel_impl("avx512_vnni");
  if (impl == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX512-VNNI; kernel not registered";
  }
  constexpr int PNR = kernels::kPanelCols;
  // Two vectors with non-multiple-of-4 lengths: quads are zero-padded and
  // the 4-byte activation reads overrun into the zeroed tail.
  const kernels::VecRange vr[2] = {{0, 5}, {5, 3}};
  const std::int64_t cols = 8;
  const std::int64_t quads[2] = {2, 1};  // padded4(5)/4, padded4(3)/4

  Rng rng(55);
  std::int16_t arow[8];
  std::int8_t w[PNR][8];  // [j][c] logical weights
  for (auto& a : arow) a = static_cast<std::int16_t>(rng.uniform_u64(255)) - 127;
  for (auto& wj : w) {
    for (auto& wc : wj) {
      wc = static_cast<std::int8_t>(static_cast<int>(rng.uniform_u64(255)) - 127);
    }
  }

  // Hand-pack the kQuadInt8 panel ([quad][j][4], zero-padded) and its
  // u8-bias compensation block, exactly as IntWeightPanels::pack does.
  constexpr std::int16_t bias = 128;  // signed 8-bit acts
  alignas(64) std::int8_t panel[3 * PNR * 4] = {};
  alignas(64) std::int32_t ncomp[2 * PNR];
  alignas(64) std::int32_t dp[2 * PNR];
  std::uint8_t u8row[8 + 4] = {};
  for (std::int64_t c = 0; c < cols; ++c) {
    u8row[c] = static_cast<std::uint8_t>(arow[c] + bias);
  }
  std::int8_t* vd = panel;
  for (int v = 0; v < 2; ++v) {
    for (std::int64_t q = 0; q < quads[v]; ++q) {
      for (int j = 0; j < PNR; ++j) {
        for (int h = 0; h < 4; ++h) {
          const std::int64_t c = 4 * q + h;
          vd[q * 4 * PNR + j * 4 + h] = c < vr[v].len ? w[j][vr[v].c0 + c] : std::int8_t{0};
        }
      }
    }
    for (int j = 0; j < PNR; ++j) {
      std::int32_t wsum = 0;
      for (std::int64_t c = 0; c < vr[v].len; ++c) wsum += w[j][vr[v].c0 + c];
      ncomp[v * PNR + j] = -static_cast<std::int32_t>(bias) * wsum;
    }
    vd += quads[v] * 4 * PNR;
  }

  kernels::PanelArgs args;
  args.arow = arow;
  args.arow8 = u8row;
  args.wp = panel;
  args.ncomp = ncomp;
  args.vr = vr;
  args.nvec = 2;
  args.dp = dp;
  impl->fn(args);

  for (int v = 0; v < 2; ++v) {
    for (int j = 0; j < PNR; ++j) {
      std::int32_t want = 0;
      for (std::int64_t c = 0; c < vr[v].len; ++c) {
        want += static_cast<std::int32_t>(arow[vr[v].c0 + c]) * w[j][vr[v].c0 + c];
      }
      EXPECT_EQ(dp[v * PNR + j], want) << "v=" << v << " j=" << j;
    }
  }
}

// ---- Sub-byte packed layouts: property sweep ----

TEST(PackedSweep, SubByteGemmBitIdenticalToByteWidthPanels) {
  // Property sweep: every packed code width x odd/even vector sizes x
  // shapes ending in tail vectors and tail panel columns. For each case
  // the byte-width panel path (VSQ_PACKED=0) is the reference; the packed
  // preference under every available tier must reproduce it bit for bit —
  // which proves the pack -> unpack-in-register round trip is the
  // identity on every code (random operands exercise the full code range,
  // sign extension included, and zero-padded tails must stay neutral).
  struct Case {
    std::int64_t cols;
    int v;
  };
  // 29/3, 45/5, 33/7: odd V with short tail vectors (bitpacked tier only);
  // 64/16: even, vector-aligned (madd/VNNI nibble layouts eligible at 4
  // bits); 37/16: even V with a ragged tail vector. k_out=11 leaves a
  // 3-column tail panel.
  const Case cases[] = {{29, 3}, {45, 5}, {33, 7}, {64, 16}, {37, 16}};
  int sub_byte_packs = 0;
  for (const int bits : {3, 4, 5, 6, 8}) {
    for (const Case& c : cases) {
      const GemmOperands ops =
          make_operands(3, c.cols, 11, bits, 6, c.v,
                        static_cast<std::uint64_t>(7000 + bits * 100 + c.cols));
      Tensor base;
      {
        EnvPacked off("0");
        base = int_gemm(ops.act, ops.wgt, -1);
      }
      // Forced onto byte-width panels, sub-byte formats must report the
      // materialized fallback (the counter the serving assertion watches).
      {
        EnvPacked off("0");
        const detail::IntWeightPanels p(ops.wgt, ops.act.layout,
                                        detail::IntActAttrs::of(ops.act));
        EXPECT_EQ(p.materialized_sub_byte(), bits < 8) << "bits=" << bits;
      }
      for (const TierCase& tier : kTiers) {
        if (!tier.available()) continue;
        EnvIsa e(tier.env);
        const Tensor y = int_gemm(ops.act, ops.wgt, -1);
        expect_bitwise_equal(base, y, std::string("packed tier ") +
                                          (tier.env ? tier.env : "native") +
                                          " bits=" + std::to_string(bits) +
                                          " cols=" + std::to_string(c.cols) +
                                          " v=" + std::to_string(c.v));
        // The packed preference must actually engage for every sub-byte
        // width (the portable bitpacked tier is always eligible), and the
        // packed form must be smaller than the int16 panels it replaces.
        const detail::IntWeightPanels p(ops.wgt, ops.act.layout,
                                        detail::IntActAttrs::of(ops.act));
        if (bits < 8) {
          EXPECT_TRUE(kernels::panel_layout_sub_byte(p.layout()))
              << "bits=" << bits << " tier=" << (tier.env ? tier.env : "native");
          EXPECT_FALSE(p.materialized_sub_byte());
          EXPECT_LT(p.resident_bytes(), p.baseline_bytes());
          ++sub_byte_packs;
        }
      }
    }
  }
  EXPECT_GT(sub_byte_packs, 0);
}

TEST(PackedSweep, PrepackedSubBytePanelsMatchPerCallPack) {
  // The load-time prepack path (what IntLayerPrimitive holds) through the
  // same sub-byte layouts: bit-identical to the per-call pack.
  for (const int bits : {3, 4, 5, 6}) {
    const GemmOperands ops =
        make_operands(4, 37, 9, bits, 6, 16, static_cast<std::uint64_t>(7600 + bits));
    const Tensor per_call = int_gemm(ops.act, ops.wgt, -1);
    const detail::IntWeightPanels panels(ops.wgt, ops.act.layout,
                                         detail::IntActAttrs::of(ops.act));
    EXPECT_TRUE(kernels::panel_layout_sub_byte(panels.layout())) << "bits=" << bits;
    const Tensor prepacked = detail::int_gemm_packed(ops.act, ops.wgt, -1, nullptr, &panels);
    expect_bitwise_equal(per_call, prepacked, "prepacked bits=" + std::to_string(bits));
  }
}

TEST(PackedSweep, ConvPackedBitIdenticalToByteWidthPanels) {
  // The conv datapath streams patch rows through the same panels; the
  // packed preference must not change a single conv output bit vs the
  // byte-width panel path, on any tier.
  MacConfig mac = MacConfig::parse("4/8/6/10");
  mac.act_unsigned = true;
  const QuantizedModelPackage pkg = tiny_conv_package(mac);
  Rng rng(7800);
  int convs = 0;
  for (const auto& [name, l] : pkg.layers) {
    if (l.kind != PackagedLayerKind::kConv) continue;
    ++convs;
    Tensor x(Shape{2, 8, 8, l.conv_in_channels()});
    for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-1.5, 1.5));
    Tensor base;
    {
      EnvPacked off("0");
      base = run_packaged_conv_layer(l, x);
    }
    for (const TierCase& tier : kTiers) {
      if (!tier.available()) continue;
      EnvIsa e(tier.env);
      expect_bitwise_equal(base, run_packaged_conv_layer(l, x),
                           name + " packed tier " + (tier.env ? tier.env : "native"));
    }
  }
  EXPECT_GT(convs, 0);
}

TEST(Vnni, IneligibleOperandsFallBackUnderVnniCap) {
  // 10-bit activations are VNNI-ineligible; under VSQ_ISA=avx512_vnni the
  // registry must quietly resolve a lower tier, bit-identical to portable.
  const GemmOperands ops = make_operands(3, 40, 8, 10, 6, 8, 67);
  Tensor y_portable, y_vnni_cap;
  {
    EnvIsa e("portable");
    y_portable = int_gemm(ops.act, ops.wgt, -1);
  }
  {
    EnvIsa e("avx512_vnni");
    y_vnni_cap = int_gemm(ops.act, ops.wgt, -1);
  }
  expect_bitwise_equal(y_portable, y_vnni_cap, "vnni-ineligible fallback");
}

}  // namespace
}  // namespace vsq
