// The fused tiled-im2col convolution engine and the integer conv
// datapath, pinned to their materialized references bit-for-bit:
//  * conv2d_nhwc vs im2col + gemm_blocked + bias across odd shapes
//    (stride > 1, pad > 0, K=1 and K=3, C not a multiple of V)
//  * Conv2d's fused inference path vs its materialized oracle path
//  * int_conv vs int_conv_reference (the materialized cols matrix through
//    quantize_activations_int + int_gemm) and vs run_packaged_layer on it
//  * 1-vs-8-thread determinism through ThreadPoolScope
//  * steady-state arena behavior: the fused path's workspace does not grow
//    across calls and stays far below the cols-matrix footprint
//  * QuantizedModelRunner conv programs: batched == sequential
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "models/zoo.h"
#include "nn/conv2d.h"
#include "quant/export.h"
#include "quant/int_conv.h"
#include "tensor/conv_engine.h"
#include "tensor/im2col.h"
#include "util/rng.h"
#include "util/scratch.h"
#include "util/thread_pool.h"

namespace vsq {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (auto& v : t.span()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << ": element " << i;
  }
}

struct ConvCase {
  std::int64_t n, h, w, c, k_out, kernel, stride, pad;
  std::string str() const {
    return std::to_string(n) + "x" + std::to_string(h) + "x" + std::to_string(w) + "x" +
           std::to_string(c) + " k" + std::to_string(k_out) + " K" + std::to_string(kernel) +
           " s" + std::to_string(stride) + " p" + std::to_string(pad);
  }
};

// Odd shapes on purpose: strides, pads, K=1 (both the identity fast path
// and strided 1x1), channel counts that are not multiples of the vector
// size, and spatial dims that leave partial MR/NR tiles everywhere.
const ConvCase kConvCases[] = {
    {1, 7, 9, 3, 5, 3, 1, 1},    //
    {2, 8, 8, 16, 8, 3, 2, 1},   // stride 2
    {1, 11, 5, 20, 7, 3, 1, 0},  // no pad
    {2, 6, 6, 19, 10, 3, 2, 1},  // C=19: tail vector, odd length
    {1, 9, 9, 13, 6, 1, 1, 0},   // 1x1, identity im2col fast path
    {2, 5, 7, 8, 12, 1, 2, 0},   // 1x1 stride 2: virtual packer path
    {1, 4, 4, 3, 4, 3, 1, 2},    // pad > 1
};

TEST(ConvEngine, FusedBitIdenticalToMaterializedAcrossShapes) {
  for (const ConvCase& cc : kConvCases) {
    const ConvGeom g{cc.h, cc.w, cc.c, cc.kernel, cc.stride, cc.pad};
    const Tensor x = random_tensor(Shape{cc.n, cc.h, cc.w, cc.c}, 100 + cc.c);
    const Tensor w = random_tensor(Shape{cc.k_out, g.patch_len()}, 200 + cc.k_out);
    const Tensor bias = random_tensor(Shape{cc.k_out}, 300 + cc.k_out);
    const Tensor fused = conv2d_nhwc(x, g, w, bias.data());
    const Tensor ref = conv2d_nhwc_materialized(x, g, w, bias.data());
    expect_bitwise_equal(fused, ref, cc.str());
    // And without bias.
    expect_bitwise_equal(conv2d_nhwc(x, g, w), conv2d_nhwc_materialized(x, g, w),
                         cc.str() + " (no bias)");
  }
}

TEST(ConvEngine, Conv2dFusedPathMatchesMaterializedOracle) {
  // Big enough that the oracle path's gemm_nt dispatches to the blocked
  // engine (above the tiny-GEMM cutoff), so the comparison is bit-exact.
  Rng rng(11);
  Conv2d conv("c", 16, 16, 3, 1, 1, rng);
  const Tensor x = random_tensor(Shape{2, 8, 8, 16}, 12);
  const Tensor fused = conv.forward(x, /*train=*/false);  // fused by default
  conv.set_use_fused(false);
  const Tensor oracle = conv.forward(x, /*train=*/false);
  expect_bitwise_equal(fused, oracle, "Conv2d fused vs oracle");
}

TEST(ConvEngine, ThreadCountInvariance) {
  const ConvGeom g{9, 9, 16, 3, 1, 1};
  const Tensor x = random_tensor(Shape{3, 9, 9, 16}, 21);
  const Tensor w = random_tensor(Shape{24, g.patch_len()}, 22);
  const Tensor bias = random_tensor(Shape{24}, 23);
  Tensor y1, y8;
  {
    ThreadPool pool1(1);
    ThreadPoolScope scope(pool1);
    y1 = conv2d_nhwc(x, g, w, bias.data());
  }
  {
    ThreadPool pool8(8);
    ThreadPoolScope scope(pool8);
    y8 = conv2d_nhwc(x, g, w, bias.data());
  }
  expect_bitwise_equal(y1, y8, "fused conv 1 vs 8 threads");
}

TEST(ConvEngine, SteadyStateArenaOnlyNeverColsSized) {
  // 4 * 32 * 32 * 16 input, K=3: the cols matrix would be
  // rows * plen * 4 = 4096 * 144 * 4 bytes ~= 2.4 MB. The fused engine's
  // per-thread workspace is a handful of packed panels.
  const ConvGeom g{32, 32, 16, 3, 1, 1};
  const Tensor x = random_tensor(Shape{4, 32, 32, 16}, 31);
  const Tensor w = random_tensor(Shape{32, g.patch_len()}, 32);
  const std::size_t cols_bytes =
      static_cast<std::size_t>(4 * 32 * 32) * static_cast<std::size_t>(g.patch_len()) *
      sizeof(float);
  // Fresh thread -> fresh thread-local arena, so the measurement is not
  // polluted by other tests' allocations.
  std::thread([&] {
    ThreadPool pool(1);
    ThreadPoolScope scope(pool);
    conv2d_nhwc(x, g, w);  // warm up: arena grows to steady state
    ScratchArena& arena = ScratchArena::thread_local_arena();
    const std::size_t steady = arena.capacity();
    for (int i = 0; i < 3; ++i) conv2d_nhwc(x, g, w);
    EXPECT_EQ(arena.capacity(), steady) << "fused conv allocated beyond its warm arena";
    EXPECT_LT(steady, cols_bytes / 2)
        << "fused conv workspace is cols-matrix sized - the tiling is not happening";
  }).join();
}

// ---- Integer conv datapath ----

struct IntConvOperands {
  QuantizedLayerPackage layer;
  ConvGeom geom;
};

// Build a conv layer package by hand: per-vector two-level weights with
// channel_block = C (the Conv2d::set_quant rule) and dynamic per-vector
// two-level activations, calibrated the way export does it.
IntConvOperands make_int_conv_operands(const ConvCase& cc, int vector_size, bool with_bias,
                                       std::uint64_t seed) {
  IntConvOperands ops;
  ops.geom = ConvGeom{cc.h, cc.w, cc.c, cc.kernel, cc.stride, cc.pad};
  const Tensor w = random_tensor(Shape{cc.k_out, ops.geom.patch_len()}, seed);

  QuantSpec wspec;
  wspec.enabled = true;
  wspec.fmt = QuantFormat{4, true};
  wspec.granularity = Granularity::kPerVector;
  wspec.vector_size = vector_size;
  wspec.channel_block = cc.c;
  wspec.scale_dtype = ScaleDtype::kTwoLevelInt;
  wspec.scale_fmt = QuantFormat{6, false};

  QuantSpec aspec = wspec;
  aspec.fmt = QuantFormat{8, true};
  aspec.scale_fmt = QuantFormat{10, false};
  aspec.dynamic = true;

  ops.layer.name = "conv";
  ops.layer.kind = PackagedLayerKind::kConv;
  ops.layer.kernel = cc.kernel;
  ops.layer.stride = cc.stride;
  ops.layer.pad = cc.pad;
  ops.layer.weights = quantize_weights_int(w, wspec);
  ops.layer.act_spec = aspec;
  ops.layer.act_amax = 1.0f;
  ops.layer.act_gamma = scale_from_amax(ops.layer.act_amax, aspec.fmt) /
                        static_cast<float>(aspec.scale_fmt.qmax());
  if (with_bias) {
    const Tensor b = random_tensor(Shape{cc.k_out}, seed + 1);
    ops.layer.bias.assign(b.data(), b.data() + cc.k_out);
  }
  return ops;
}

TEST(IntConv, BitIdenticalToRunPackagedLayerOnMaterializedCols) {
  // V=16 with C=16 (even vectors: madd panel kernel), C=19 (16+3 tail:
  // generic kernel), C=20 (16+4, even), V=8 with a 1x1 kernel.
  const struct {
    ConvCase cc;
    int v;
  } cases[] = {
      {{2, 7, 7, 16, 9, 3, 1, 1}, 16},
      {{1, 6, 8, 19, 5, 3, 2, 1}, 16},
      {{2, 5, 5, 20, 8, 3, 1, 0}, 16},
      {{1, 5, 5, 12, 6, 1, 1, 0}, 8},
  };
  for (const auto& [cc, v] : cases) {
    const IntConvOperands ops = make_int_conv_operands(cc, v, /*with_bias=*/true, 400 + cc.c);
    const Tensor x = random_tensor(Shape{cc.n, cc.h, cc.w, cc.c}, 500 + cc.c);

    const Tensor cols = im2col(x, ops.geom);
    IntGemmStats ref_stats, got_stats, ref2_stats;
    const Tensor ref2d = run_packaged_layer(ops.layer, cols, /*scale_product_bits=*/-1,
                                            &ref_stats);
    const Tensor got = int_conv(x, ops.geom, ops.layer.weights, ops.layer.act_spec,
                                ops.layer.act_amax, ops.layer.act_gamma, ops.layer.bias,
                                /*scale_product_bits=*/-1, &got_stats);
    const Tensor ref = ref2d.reshape(got.shape());
    expect_bitwise_equal(got, ref, cc.str() + " V=" + std::to_string(v));

    // The datapath counters must agree too: same vector ops, same gating.
    EXPECT_EQ(got_stats.vector_ops, ref_stats.vector_ops);
    EXPECT_EQ(got_stats.zero_scale_products, ref_stats.zero_scale_products);
    EXPECT_EQ(got_stats.zero_dot_products, ref_stats.zero_dot_products);
    EXPECT_EQ(got_stats.max_abs_psum, ref_stats.max_abs_psum);

    // And the materialized reference (quantize_activations_int + int_gemm
    // over the whole cols matrix) agrees with both, counters included.
    const Tensor ref_conv =
        int_conv_reference(x, ops.geom, ops.layer.weights, ops.layer.act_spec,
                           ops.layer.act_amax, ops.layer.act_gamma, ops.layer.bias,
                           /*scale_product_bits=*/-1, &ref2_stats);
    expect_bitwise_equal(got, ref_conv, cc.str() + " vs int_conv_reference");
    EXPECT_EQ(got_stats.vector_ops, ref2_stats.vector_ops);
    EXPECT_EQ(got_stats.zero_scale_products, ref2_stats.zero_scale_products);
    EXPECT_EQ(got_stats.zero_dot_products, ref2_stats.zero_dot_products);
    EXPECT_EQ(got_stats.max_abs_psum, ref2_stats.max_abs_psum);
  }
}

TEST(IntConv, ScaleProductRoundingMatchesReference) {
  const ConvCase cc{1, 6, 6, 16, 8, 3, 1, 1};
  const IntConvOperands ops = make_int_conv_operands(cc, 16, /*with_bias=*/false, 601);
  const Tensor x = random_tensor(Shape{cc.n, cc.h, cc.w, cc.c}, 602);
  for (int bits : {4, 6, 8}) {
    const Tensor ref =
        int_conv_reference(x, ops.geom, ops.layer.weights, ops.layer.act_spec,
                           ops.layer.act_amax, ops.layer.act_gamma, ops.layer.bias, bits);
    const Tensor got = int_conv(x, ops.geom, ops.layer.weights, ops.layer.act_spec,
                                ops.layer.act_amax, ops.layer.act_gamma, ops.layer.bias, bits);
    expect_bitwise_equal(got, ref, "scale_product_bits=" + std::to_string(bits));
  }
}

TEST(IntConv, CoarseActivationsMatchReference) {
  // Per-tensor static activations (the baseline accelerator datapath):
  // row-local quantization with the calibrated amax.
  const ConvCase cc{2, 6, 6, 16, 7, 3, 2, 1};
  IntConvOperands ops = make_int_conv_operands(cc, 16, /*with_bias=*/true, 701);
  ops.layer.act_spec.granularity = Granularity::kPerTensor;
  ops.layer.act_spec.dynamic = false;
  ops.layer.act_amax = 0.9f;
  ops.layer.act_gamma = 0.0f;
  const Tensor x = random_tensor(Shape{cc.n, cc.h, cc.w, cc.c}, 702);
  const Tensor ref = int_conv_reference(x, ops.geom, ops.layer.weights, ops.layer.act_spec,
                                        ops.layer.act_amax, ops.layer.act_gamma, ops.layer.bias);
  const Tensor got = int_conv(x, ops.geom, ops.layer.weights, ops.layer.act_spec,
                              ops.layer.act_amax, ops.layer.act_gamma, ops.layer.bias);
  expect_bitwise_equal(got, ref, "coarse activations");
}

TEST(IntConv, ThreadCountInvariance) {
  const ConvCase cc{2, 8, 8, 16, 12, 3, 1, 1};
  const IntConvOperands ops = make_int_conv_operands(cc, 16, /*with_bias=*/true, 801);
  const Tensor x = random_tensor(Shape{cc.n, cc.h, cc.w, cc.c}, 802);
  Tensor y1, y8;
  {
    ThreadPool pool1(1);
    ThreadPoolScope scope(pool1);
    y1 = int_conv(x, ops.geom, ops.layer.weights, ops.layer.act_spec, ops.layer.act_amax,
                  ops.layer.act_gamma, ops.layer.bias);
  }
  {
    ThreadPool pool8(8);
    ThreadPoolScope scope(pool8);
    y8 = int_conv(x, ops.geom, ops.layer.weights, ops.layer.act_spec, ops.layer.act_amax,
                  ops.layer.act_gamma, ops.layer.bias);
  }
  expect_bitwise_equal(y1, y8, "int_conv 1 vs 8 threads");
}

TEST(IntConv, RejectsStraddlingVectorLayout) {
  // channel_block != C would let vectors straddle kernel positions — the
  // layout rule Conv2d::set_quant enforces; int_conv must reject it.
  const ConvCase cc{1, 5, 5, 16, 4, 3, 1, 1};
  IntConvOperands ops = make_int_conv_operands(cc, 16, /*with_bias=*/false, 901);
  ops.layer.act_spec.channel_block = 0;  // one block spanning the whole patch row
  const Tensor x = random_tensor(Shape{cc.n, cc.h, cc.w, cc.c}, 902);
  EXPECT_THROW(int_conv(x, ops.geom, ops.layer.weights, ops.layer.act_spec,
                        ops.layer.act_amax, ops.layer.act_gamma, {}),
               std::invalid_argument);
}

// ---- Conv programs through QuantizedModelRunner ----

TEST(ConvRunner, BatchedBitIdenticalToSequentialRows) {
  const QuantizedModelPackage pkg = tiny_conv_package(MacConfig::parse("4/8/6/10"));
  const QuantizedModelRunner runner(pkg);
  EXPECT_TRUE(runner.spatial());
  EXPECT_EQ(runner.in_features(), 8 * 8 * 3);
  EXPECT_EQ(runner.out_features(), 10);
  const Tensor batch = random_tensor(Shape{5, runner.in_features()}, 1001);
  const Tensor y = runner.forward(batch);
  ASSERT_EQ(y.shape(), (Shape{5, 10}));
  for (std::int64_t r = 0; r < batch.shape()[0]; ++r) {
    const Tensor row = runner.forward(batch.slice_rows(r, r + 1));
    expect_bitwise_equal(row, y.slice_rows(r, r + 1),
                         "row " + std::to_string(r) + " batched vs sequential");
  }
}

TEST(ConvRunner, RunnerBitIdenticalAcrossThreadCounts) {
  const QuantizedModelPackage pkg = tiny_conv_package(MacConfig::parse("4/8/6/10"));
  const QuantizedModelRunner runner(pkg);
  const Tensor batch = random_tensor(Shape{4, runner.in_features()}, 1101);
  Tensor y1, y8;
  {
    ThreadPool pool1(1);
    ThreadPoolScope scope(pool1);
    y1 = runner.forward(batch);
  }
  {
    ThreadPool pool8(8);
    ThreadPoolScope scope(pool8);
    y8 = runner.forward(batch);
  }
  expect_bitwise_equal(y1, y8, "conv runner 1 vs 8 threads");
}

TEST(ConvRunner, PackageRoundTripPreservesProgramAndGeometry) {
  const QuantizedModelPackage pkg = tiny_conv_package(MacConfig::parse("4/8/6/10"));
  const std::string tmp = ::testing::TempDir() + "vsq_conv_roundtrip.vsqa";
  pkg.save(tmp);
  const QuantizedModelPackage loaded = QuantizedModelPackage::load(tmp);
  ASSERT_EQ(loaded.program.size(), pkg.program.size());
  for (std::size_t i = 0; i < pkg.program.size(); ++i) {
    EXPECT_EQ(loaded.program[i].layer, pkg.program[i].layer);
    EXPECT_EQ(loaded.program[i].relu, pkg.program[i].relu);
    EXPECT_EQ(loaded.program[i].op, pkg.program[i].op);
  }
  EXPECT_EQ(loaded.in_h, pkg.in_h);
  EXPECT_EQ(loaded.in_w, pkg.in_w);
  EXPECT_EQ(loaded.in_c, pkg.in_c);
  const QuantizedLayerPackage& stem = loaded.layers.at("stem");
  EXPECT_EQ(stem.kind, PackagedLayerKind::kConv);
  EXPECT_EQ(stem.kernel, 3);
  EXPECT_EQ(stem.stride, 1);
  EXPECT_EQ(stem.pad, 1);
  EXPECT_EQ(stem.conv_in_channels(), 3);

  // Loaded package executes bit-identically.
  const QuantizedModelRunner a(pkg), b(loaded);
  const Tensor x = random_tensor(Shape{3, a.in_features()}, 1201);
  expect_bitwise_equal(a.forward(x), b.forward(x), "runner fresh vs loaded package");
  std::remove(tmp.c_str());
}

TEST(ConvRunner, RejectsBrokenPrograms) {
  QuantizedModelPackage pkg = tiny_conv_package(MacConfig::parse("4/8/6/10"));
  // Residual add with nothing saved.
  QuantizedModelPackage broken = pkg;
  broken.program = {ForwardStep::conv("stem", true), ForwardStep::add_saved(false)};
  EXPECT_THROW(QuantizedModelRunner{broken}, std::invalid_argument);
  // Spatial program without input geometry.
  QuantizedModelPackage no_geom = pkg;
  no_geom.in_h = no_geom.in_w = no_geom.in_c = 0;
  EXPECT_THROW(QuantizedModelRunner{no_geom}, std::invalid_argument);
  // Conv step naming a missing layer.
  QuantizedModelPackage missing = pkg;
  missing.program = {ForwardStep::conv("nope", false)};
  EXPECT_THROW(QuantizedModelRunner{missing}, std::invalid_argument);
  // Residual add with no layer op since the save: h would alias `saved`
  // (and the caller's input) and the in-place add would corrupt it.
  QuantizedModelPackage aliasing = pkg;
  aliasing.program = {ForwardStep::save(), ForwardStep::add_saved(false),
                      ForwardStep::conv("stem", true)};
  EXPECT_THROW(QuantizedModelRunner{aliasing}, std::invalid_argument);
}

}  // namespace
}  // namespace vsq
