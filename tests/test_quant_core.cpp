#include <gtest/gtest.h>

#include <limits>

#include "quant/amax.h"
#include "quant/scale.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace vsq {
namespace {

Tensor random_matrix(std::int64_t r, std::int64_t c, Rng& rng, double scale = 1.0) {
  Tensor t(Shape{r, c});
  for (auto& v : t.span()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

TEST(QuantFormat, SignedRanges) {
  const QuantFormat f{8, true};
  EXPECT_EQ(f.qmax(), 127);
  EXPECT_EQ(f.qmin(), -127);
  const QuantFormat f4{4, true};
  EXPECT_EQ(f4.qmax(), 7);
  EXPECT_EQ(f4.qmin(), -7);
}

TEST(QuantFormat, UnsignedRanges) {
  const QuantFormat f{8, false};
  EXPECT_EQ(f.qmax(), 255);
  EXPECT_EQ(f.qmin(), 0);
  const QuantFormat f3{3, false};
  EXPECT_EQ(f3.qmax(), 7);
}

TEST(QuantFormat, ScaleFromAmaxEq1) {
  const QuantFormat f{8, true};
  EXPECT_FLOAT_EQ(scale_from_amax(127.0f, f), 1.0f);
  EXPECT_FLOAT_EQ(scale_from_amax(0.0f, f), 0.0f);
}

// Property: round-trip error of an in-range value is at most scale/2.
class QuantizeValueProp : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeValueProp, RoundTripErrorBounded) {
  const int bits = GetParam();
  const QuantFormat f{bits, true};
  Rng rng(bits);
  const float amax = 3.0f;
  const float s = scale_from_amax(amax, f);
  for (int i = 0; i < 500; ++i) {
    const float x = static_cast<float>(rng.uniform(-amax, amax));
    const float xq = fake_quantize_value(x, s, f);
    EXPECT_LE(std::abs(xq - x), s / 2 + 1e-6f) << "bits=" << bits << " x=" << x;
  }
}

TEST_P(QuantizeValueProp, OutOfRangeClipsToAmax) {
  const int bits = GetParam();
  const QuantFormat f{bits, true};
  const float s = scale_from_amax(1.0f, f);
  EXPECT_FLOAT_EQ(fake_quantize_value(100.0f, s, f), 1.0f);
  EXPECT_FLOAT_EQ(fake_quantize_value(-100.0f, s, f), -1.0f);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, QuantizeValueProp, ::testing::Values(3, 4, 6, 8, 10));

TEST(QuantizeValue, ZeroScaleYieldsZero) {
  const QuantFormat f{8, true};
  EXPECT_EQ(quantize_value(5.0f, 0.0f, f), 0);
  EXPECT_FLOAT_EQ(fake_quantize_value(5.0f, 0.0f, f), 0.0f);
}

TEST(QuantizeValue, HugeValuesSaturateAndNaNIsZero) {
  // The clip happens in float before the rounding: a scaled value at or
  // beyond +-2^63 (or an infinity) must saturate to its own side's limit,
  // not wrap through INT64_MIN to qmin, and NaN must not become a code.
  const QuantFormat s8{8, true};
  EXPECT_EQ(quantize_value(1e19f, 1.0f, s8), 127);
  EXPECT_EQ(quantize_value(-1e19f, 1.0f, s8), -127);
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::infinity(), 1.0f, s8), 127);
  EXPECT_EQ(quantize_value(-std::numeric_limits<float>::infinity(), 1.0f, s8), -127);
  EXPECT_EQ(quantize_value(3e9f, 1.0f, s8), 127);  // beyond int32, within int64
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::quiet_NaN(), 1.0f, s8), 0);
  EXPECT_EQ(quantize_value(1.0f, std::numeric_limits<float>::quiet_NaN(), s8), 0);
  const QuantFormat u4{4, false};
  EXPECT_EQ(quantize_value(1e19f, 1.0f, u4), 15);
  EXPECT_EQ(quantize_value(-std::numeric_limits<float>::infinity(), 1.0f, u4), 0);
  // Served (integer) and simulated (fake-quant) inference agree: both
  // saturate a huge activation to qmax.
  EXPECT_FLOAT_EQ(fake_quantize_value(1e19f, 0.5f, s8), 63.5f);
}

TEST(QuantizeValue, UnsignedClipsNegativesToZero) {
  const QuantFormat f{4, false};
  const float s = scale_from_amax(1.0f, f);
  EXPECT_FLOAT_EQ(fake_quantize_value(-0.7f, s, f), 0.0f);
}

// ---- amax per granularity ----

TEST(Amax, PerTensorPerRowPerVector) {
  Tensor x = Tensor::from_vector(Shape{2, 4}, {1, -2, 3, -4, 10, 0.5f, -0.25f, 7});
  EXPECT_FLOAT_EQ(amax_per_tensor(x), 10.0f);
  const auto rows = amax_per_row(x);
  EXPECT_FLOAT_EQ(rows[0], 4.0f);
  EXPECT_FLOAT_EQ(rows[1], 10.0f);
  const auto vecs = amax_per_vector(x, VectorLayout{4, 2, 0});
  ASSERT_EQ(vecs.size(), 4u);
  EXPECT_FLOAT_EQ(vecs[0], 2.0f);   // row 0, cols 0-1
  EXPECT_FLOAT_EQ(vecs[1], 4.0f);   // row 0, cols 2-3
  EXPECT_FLOAT_EQ(vecs[2], 10.0f);  // row 1, cols 0-1
  EXPECT_FLOAT_EQ(vecs[3], 7.0f);   // row 1, cols 2-3
}

TEST(Amax, TailVectorShorterThanV) {
  Tensor x = Tensor::from_vector(Shape{1, 5}, {1, 2, 3, 4, 9});
  const auto vecs = amax_per_vector(x, VectorLayout{5, 4, 0});
  ASSERT_EQ(vecs.size(), 2u);
  EXPECT_FLOAT_EQ(vecs[0], 4.0f);
  EXPECT_FLOAT_EQ(vecs[1], 9.0f);  // tail vector of one element
}

// ---- VectorLayout with channel blocks (conv V x 1 x 1 semantics) ----

TEST(VectorLayout, BlocksResetVectorBoundaries) {
  // cols = 12 = 3 blocks of C=4 channels; V=3 -> 2 vectors per block (3+1).
  const VectorLayout l{12, 3, 4};
  EXPECT_EQ(l.num_blocks(), 3);
  EXPECT_EQ(l.vecs_per_block(), 2);
  EXPECT_EQ(l.vectors_per_row(), 6);
  EXPECT_EQ(l.vector_of_col(0), 0);
  EXPECT_EQ(l.vector_of_col(3), 1);   // tail of block 0
  EXPECT_EQ(l.vector_of_col(4), 2);   // first vector of block 1
  const auto [c0, c1] = l.col_range(1);
  EXPECT_EQ(c0, 3);
  EXPECT_EQ(c1, 4);  // tail vector covers one channel
}

TEST(VectorLayout, ValidateRejectsNonDividingBlock) {
  const VectorLayout bad{10, 4, 3};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(VectorLayout, ZeroBlockMeansWholeRow) {
  const VectorLayout l{10, 4, 0};
  EXPECT_EQ(l.num_blocks(), 1);
  EXPECT_EQ(l.vectors_per_row(), 3);
}

// ---- fake_quantize per granularity ----

class FakeQuantGranularity : public ::testing::TestWithParam<Granularity> {};

TEST_P(FakeQuantGranularity, ElementErrorWithinLocalScale) {
  Rng rng(11);
  const Tensor x = random_matrix(8, 32, rng);
  const QuantFormat f{6, true};
  const ScaleSet s = compute_scales(x, GetParam(), VectorLayout{32, 8, 0}, f);
  const Tensor xq = fake_quantize(x, s, f);
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 32; ++c) {
      EXPECT_LE(std::abs(xq.at2(r, c) - x.at2(r, c)), s.at(r, c) / 2 + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, FakeQuantGranularity,
                         ::testing::Values(Granularity::kPerTensor, Granularity::kPerRow,
                                           Granularity::kPerVector));

TEST(FakeQuant, FinerGranularityLowersMse) {
  // The paper's core motivation (Sec. 4): per-vector scaling reduces
  // quantization error versus per-row versus per-tensor. Use a long-tailed
  // distribution so coarse scales are stretched by outliers.
  Rng rng(12);
  Tensor x(Shape{16, 64});
  for (auto& v : x.span()) v = static_cast<float>(rng.laplace(0.5));
  const QuantFormat f{4, true};
  const VectorLayout layout{64, 16, 0};
  const Tensor q_tensor =
      fake_quantize(x, compute_scales(x, Granularity::kPerTensor, layout, f), f);
  const Tensor q_row = fake_quantize(x, compute_scales(x, Granularity::kPerRow, layout, f), f);
  const Tensor q_vec =
      fake_quantize(x, compute_scales(x, Granularity::kPerVector, layout, f), f);
  EXPECT_LT(mse(x, q_row), mse(x, q_tensor));
  EXPECT_LT(mse(x, q_vec), mse(x, q_row));
}

TEST(FakeQuant, SmallerVectorsLowerMse) {
  // Table 4's mechanism: error grows with V.
  Rng rng(13);
  Tensor x(Shape{8, 64});
  for (auto& v : x.span()) v = static_cast<float>(rng.laplace(0.5));
  const QuantFormat f{6, true};
  double prev = -1.0;
  for (const int v : {1, 4, 16, 64}) {
    const ScaleSet s = compute_scales(x, Granularity::kPerVector, VectorLayout{64, v, 0}, f);
    const double m = mse(x, fake_quantize(x, s, f));
    if (prev >= 0.0) {
      EXPECT_GE(m, prev) << "V=" << v;
    }
    prev = m;
  }
}

TEST(FakeQuant, V1IsLossless) {
  // V = 1: every element has its own scale -> only representation loss of
  // one rounding step at full scale, i.e. x maps to exactly amax * q/qmax
  // with q = qmax -> x itself.
  Rng rng(14);
  const Tensor x = random_matrix(4, 8, rng);
  const QuantFormat f{8, true};
  const ScaleSet s = compute_scales(x, Granularity::kPerVector, VectorLayout{8, 1, 0}, f);
  const Tensor xq = fake_quantize(x, s, f);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(xq[i], x[i], std::abs(x[i]) * 1e-6 + 1e-7);
  }
}

TEST(FakeQuant, Fp16ScalesCloseToFp32Scales) {
  Rng rng(15);
  const Tensor x = random_matrix(8, 32, rng);
  const QuantFormat f{8, true};
  ScaleSet s = compute_scales(x, Granularity::kPerVector, VectorLayout{32, 16, 0}, f);
  ScaleSet s16 = s;
  round_scales_fp16(s16);
  const Tensor q32 = fake_quantize(x, s, f);
  const Tensor q16 = fake_quantize(x, s16, f);
  // fp16 scales leave quantization quality essentially unchanged (the
  // paper's S=fp16 columns match S=fp32 to within noise).
  EXPECT_LT(mse(x, q16), mse(x, q32) * 1.2 + 1e-10);
}

TEST(ScalesFromAmax, CountValidation) {
  const QuantFormat f{8, true};
  EXPECT_THROW(scales_from_amax(Granularity::kPerRow, VectorLayout{4, 2, 0}, 3, {1.0f}, f),
               std::invalid_argument);
}

TEST(QuantizeToInt, ValuesWithinFormatRange) {
  Rng rng(16);
  const Tensor x = random_matrix(4, 16, rng, 2.0);
  const QuantFormat f{4, true};
  const ScaleSet s = compute_scales(x, Granularity::kPerVector, VectorLayout{16, 4, 0}, f);
  const auto q = quantize_to_int(x, s, f);
  for (const auto v : q) {
    EXPECT_GE(v, f.qmin());
    EXPECT_LE(v, f.qmax());
  }
}

}  // namespace
}  // namespace vsq
