// The gelu primitive: GELU's tanh approximation over a float array, and
// its scalar definition, a port of fdlibm's tanhf over expm1f — the
// algorithm glibc 2.36 ships as tanhf (sysdeps/ieee754/flt-32/s_tanhf.c,
// s_expm1f.c), so the port returns std::tanh's bits there.
//
//   portable   the scalar definition, element by element
//   avx2       8 lanes per step; the last n % 8 elements run the scalar
//              definition
//
// The avx2 tier performs the scalar port's float operations in the same
// order, lane for lane, and turns each branch into a blend, so it returns
// the same bits on every input. It is compiled for AVX2 WITHOUT FMA: GCC
// contracts _mm256_add_ps(_mm256_mul_ps(a, b), c) into one vfmadd when
// FMA is enabled, and that single rounding would change results.
//
// fdlibm carries this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// (Float versions by Ian Lance Taylor, Cygnus Support.)
#include <bit>
#include <cmath>
#include <cstdint>

#include "kernels/builtin_impls.h"
#include "kernels/isa.h"
#include "kernels/registry.h"

#if defined(__x86_64__) || defined(__i386__)
#define VSQ_KERNELS_X86 1
#include <immintrin.h>
#else
#define VSQ_KERNELS_X86 0
#endif

namespace vsq::kernels {
namespace {

constexpr float kOne = 1.0f;
constexpr float kTwo = 2.0f;
constexpr float kHuge = 1.0e+30f;
constexpr float kTiny = 1.0e-30f;
constexpr float kLn2Hi = 6.9313812256e-01f;
constexpr float kLn2Lo = 9.0580006145e-06f;
constexpr float kInvLn2 = 1.4426950216e+00f;
// Scaled coefficients of expm1's rational approximation on [0, 0.5 ln2].
constexpr float kQ1 = -3.3333335072e-02f;
constexpr float kQ2 = 1.5873016091e-03f;
constexpr float kQ3 = -7.9365076090e-05f;
constexpr float kQ4 = 4.0082177293e-06f;
constexpr float kQ5 = -2.0109921195e-07f;
static_assert(std::bit_cast<std::uint32_t>(kLn2Hi) == 0x3f317180u);
static_assert(std::bit_cast<std::uint32_t>(kLn2Lo) == 0x3717f7d1u);
static_assert(std::bit_cast<std::uint32_t>(kInvLn2) == 0x3fb8aa3bu);
static_assert(std::bit_cast<std::uint32_t>(kQ1) == 0xbd088889u);
static_assert(std::bit_cast<std::uint32_t>(kQ2) == 0x3ad00d01u);
static_assert(std::bit_cast<std::uint32_t>(kQ3) == 0xb8a670cdu);
static_assert(std::bit_cast<std::uint32_t>(kQ4) == 0x36867e54u);
static_assert(std::bit_cast<std::uint32_t>(kQ5) == 0xb457edbbu);

// Bit patterns of |x| at the branch points.
constexpr std::int32_t kTanhTiny = 0x24000000;      // 2^-55
constexpr std::int32_t kTanhOne = 0x3f800000;       // 1
constexpr std::int32_t kTanhSat = 0x41b00000;       // 22
constexpr std::int32_t kExpm1Tiny = 0x33000000;     // 2^-25
constexpr std::int32_t kHalfLn2 = 0x3eb17218;       // 0.5 ln2
constexpr std::int32_t kThreeHalfLn2 = 0x3f851592;  // 1.5 ln2
constexpr std::int32_t kExpBits = 0x7f800000;       // inf

// y * 2^k by adding k to y's exponent field (fdlibm's SET_FLOAT_WORD).
float scale_by_pow2(float y, std::int32_t k) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                              (static_cast<std::uint32_t>(k) << 23));
}

// fdlibm's expm1f on the arguments tanh_fdlibm passes it: 2|x| in
// [2, 44) and -2|x| in (-2, -2^-54]. Those reach the reductions k = 0,
// k = -1 and k = round(x / ln2) in [-3, -2] and [3, 63]; the branches no
// such argument reaches (the non-finite, overflow and x < -27 ln2
// filters, and k = 1) are left out. Every other line is s_expm1f.c's, in
// its order.
float expm1_for_tanh(float x) {
  const std::int32_t hx = std::bit_cast<std::int32_t>(x) & 0x7fffffff;
  std::int32_t k = 0;
  float c = 0.0f;
  if (hx > kHalfLn2) {  // reduce x to hi - lo with x = k ln2 + (hi - lo)
    float hi, lo;
    if (hx < kThreeHalfLn2) {  // |x| < 1.5 ln2, so x < 0 here: k = -1
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (x < 0.0f ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1Tiny) {  // |x| < 2^-25: x
    const float t = kHuge + x;
    return x - (t - (kHuge + x));
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return scale_by_pow2(kOne - (e - x), k) - kOne;
  if (k < 23) {
    const float one_minus = std::bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return scale_by_pow2(one_minus - (e - x), k);
  }
  const float pow2_neg_k = std::bit_cast<float>(static_cast<std::uint32_t>(0x7f - k) << 23);
  float y = x - (e + pow2_neg_k);
  y += kOne;
  return scale_by_pow2(y, k);
}

void gelu_portable(const float* x, std::int64_t n, float* y) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = gelu_element(x[i]);
}

#if VSQ_KERNELS_X86
#define VSQ_AVX2 __attribute__((target("avx2")))

VSQ_AVX2 __m256i splat(std::int32_t v) { return _mm256_set1_epi32(v); }

// Lane masks of int32 compares against a constant, as float masks for
// blendv. The operands are |x| bit patterns (below 2^31) or the small
// exponent k, so the signed compare orders them as the scalar code does.
VSQ_AVX2 __m256 lanes_lt(__m256i a, std::int32_t b) {
  return _mm256_castsi256_ps(_mm256_cmpgt_epi32(splat(b), a));
}
VSQ_AVX2 __m256 lanes_ge(__m256i a, std::int32_t b) {
  return _mm256_castsi256_ps(_mm256_cmpgt_epi32(a, splat(b - 1)));
}
VSQ_AVX2 __m256 lanes_eq(__m256i a, std::int32_t b) {
  return _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, splat(b)));
}

VSQ_AVX2 __m256 select(__m256 mask, __m256 if_set, __m256 if_clear) {
  return _mm256_blendv_ps(if_clear, if_set, mask);
}

VSQ_AVX2 __m256 scale_by_pow2(__m256 y, __m256i k) {
  return _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
}

// expm1_for_tanh, lane for lane. Every lane runs the reduction and the
// rational approximation; the branch results are then selected by k.
// The reduction's k = -1 and k = 0 cases go through the general formula
// with t = -1 and t = 0, which yields fdlibm's hi and lo for them exactly.
VSQ_AVX2 __m256 expm1_for_tanh8(__m256 x) {
  const __m256 one = _mm256_set1_ps(kOne);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i hx = _mm256_and_si256(_mm256_castps_si256(x), splat(0x7fffffff));
  const __m256 neg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LT_OQ);
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kInvLn2), x),
                                                select(neg, _mm256_set1_ps(-0.5f), half)));
  k = _mm256_blendv_epi8(k, splat(-1), _mm256_castps_si256(lanes_lt(hx, kThreeHalfLn2)));
  k = _mm256_and_si256(k, _mm256_castps_si256(lanes_ge(hx, kHalfLn2 + 1)));
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(t, _mm256_set1_ps(kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 hfx = _mm256_mul_ps(half, xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 poly = _mm256_mul_ps(hxs, _mm256_set1_ps(kQ5));
  poly = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ4), poly));
  poly = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ3), poly));
  poly = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ2), poly));
  poly = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ1), poly));
  const __m256 r1 = _mm256_add_ps(one, poly);
  const __m256 tt = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, tt),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f), _mm256_mul_ps(xr, tt))));
  const __m256 r_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  const __m256 e_minus_x = _mm256_sub_ps(e, xr);
  const __m256 r_km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
  const __m256 r_far = _mm256_sub_ps(scale_by_pow2(_mm256_sub_ps(one, e_minus_x), k), one);
  const __m256 one_minus = _mm256_castsi256_ps(  // 1 - 2^-k
      _mm256_sub_epi32(splat(0x3f800000), _mm256_srlv_epi32(splat(0x1000000), k)));
  const __m256 r_low = scale_by_pow2(_mm256_sub_ps(one_minus, e_minus_x), k);
  const __m256 pow2_neg_k =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), k), 23));
  const __m256 r_mid =
      scale_by_pow2(_mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, pow2_neg_k)), one), k);

  __m256 r = select(lanes_lt(k, 23), r_low, r_mid);
  r = select(_mm256_or_ps(lanes_lt(k, -1), lanes_ge(k, 57)), r_far, r);
  r = select(lanes_eq(k, -1), r_km1, r);
  r = select(lanes_eq(k, 0), r_k0, r);
  const __m256 huge_x = _mm256_add_ps(_mm256_set1_ps(kHuge), x);
  return select(lanes_lt(hx, kExpm1Tiny), _mm256_sub_ps(x, _mm256_sub_ps(huge_x, huge_x)), r);
}

// tanh_fdlibm, lane for lane.
VSQ_AVX2 __m256 tanh8(__m256 x) {
  const __m256 one = _mm256_set1_ps(kOne);
  const __m256 two = _mm256_set1_ps(kTwo);
  const __m256i ix = _mm256_and_si256(_mm256_castps_si256(x), splat(0x7fffffff));
  const __m256 sign = _mm256_and_ps(x, _mm256_castsi256_ps(splat(INT32_MIN)));
  const __m256 abs_x = _mm256_castsi256_ps(ix);
  const __m256 big = lanes_ge(ix, kTanhOne);
  const __m256 t = expm1_for_tanh8(
      select(big, _mm256_mul_ps(two, abs_x), _mm256_mul_ps(_mm256_set1_ps(-kTwo), abs_x)));
  const __m256 neg_t = _mm256_xor_ps(t, _mm256_castsi256_ps(splat(INT32_MIN)));
  const __m256 q = _mm256_div_ps(select(big, two, neg_t), _mm256_add_ps(t, two));
  __m256 z = select(big, _mm256_sub_ps(one, q), q);
  z = select(lanes_ge(ix, kTanhSat), _mm256_set1_ps(kOne - kTiny), z);
  __m256 r = _mm256_xor_ps(z, sign);
  // |x| < 2^-55, and +-0, whose x * (1 + x) is the scalar code's x.
  r = select(lanes_lt(ix, kTanhTiny), _mm256_mul_ps(x, _mm256_add_ps(one, x)), r);
  const __m256 r_nonfinite =
      _mm256_add_ps(_mm256_div_ps(one, x), select(sign, _mm256_set1_ps(-kOne), one));
  return select(lanes_ge(ix, kExpBits), r_nonfinite, r);
}

VSQ_AVX2 void gelu_avx2(const float* x, std::int64_t n, float* y) {
  const __m256 c = _mm256_set1_ps(kGeluSqrt2OverPi);
  const __m256 a = _mm256_set1_ps(kGeluCubic);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(kOne);
  const std::int64_t body = n / 8 * 8;
  for (std::int64_t i = 0; i < body; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(a, v), v), v);
    const __m256 u = _mm256_mul_ps(c, _mm256_add_ps(v, cube));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, tanh8(u))));
  }
  for (std::int64_t i = body; i < n; ++i) y[i] = gelu_element(x[i]);
}

#undef VSQ_AVX2
#endif  // VSQ_KERNELS_X86

}  // namespace

float tanh_fdlibm(float x) {
  const std::int32_t jx = std::bit_cast<std::int32_t>(x);
  const std::int32_t ix = jx & 0x7fffffff;
  const bool neg = jx < 0;
  if (ix >= kExpBits) return neg ? kOne / x - kOne : kOne / x + kOne;  // +-1, NaN
  float z;
  if (ix < kTanhSat) {
    if (ix == 0) return x;                          // +-0
    if (ix < kTanhTiny) return x * (kOne + x);      // tanh(small) = small
    if (ix >= kTanhOne) {
      const float t = expm1_for_tanh(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = expm1_for_tanh(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {  // |x| >= 22: +-1
    z = kOne - kTiny;
  }
  return neg ? -z : z;
}

float gelu_element(float x) {
  const float u = kGeluSqrt2OverPi * (x + kGeluCubic * x * x * x);
  return 0.5f * x * (kOne + tanh_fdlibm(u));
}

std::vector<GeluImpl> builtin_gelu_impls() {
  std::vector<GeluImpl> impls;
  impls.push_back({"portable", isa::Tier::kPortable, gelu_portable});
#if VSQ_KERNELS_X86
  if (isa::features().avx2) impls.push_back({"avx2", isa::Tier::kAvx2, gelu_avx2});
#endif
  return impls;
}

}  // namespace vsq::kernels
