// Built-in act-quant implementations: the PPU's two-level activation
// quantizer over one row (Eq. 7g-7h) — per vector, runtime amax, the
// integer scale sq = round(s / gamma), then the integer elements.
//
//   portable   the scalar reference loop (what quantize_activations_int runs)
//   avx2       8 lanes per step; a vector's last len % 8 elements run the
//              scalar quantize_code
//
// The SIMD tiers reproduce the reference lane for lane, so every tier
// yields the same codes and scales on every input:
//   - amax: max_ps(|x|, acc) returns acc when |x| is NaN, which is what
//     std::max(amax, NaN) does; the accumulator never holds a NaN, so the
//     lane order of the horizontal max cannot change the result;
//   - sq: vector_scale_code, the one scalar definition, per vector;
//   - elements: x / (sq * gamma) as a true division (a reciprocal multiply
//     rounds differently), clamped to [qmin, qmax] in float before the
//     conversion, converted under the current rounding mode (cvtps2dq and
//     llrint both read it: half-even by default), and NaN lanes zeroed —
//     quantize_code step by step.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

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

void act_quant_portable(const float* x, const VecRange* vr, std::int64_t nvec,
                        const ActQuantParams& p, std::int16_t* q, std::uint16_t* sq) {
  const std::int64_t qmin = p.fmt.qmin(), qmax = p.fmt.qmax(), sq_max = p.scale_fmt.qmax();
  for (std::int64_t v = 0; v < nvec; ++v) {
    const float* xv = x + vr[v].c0;
    std::int16_t* qv = q + vr[v].c0;
    const std::int32_t len = vr[v].len;
    float amax = 0.0f;
    for (std::int32_t c = 0; c < len; ++c) amax = std::max(amax, std::abs(xv[c]));
    sq[v] = vector_scale_code(amax, qmax, p.gamma, sq_max);
    const float eff = static_cast<float>(sq[v]) * p.gamma;  // Eq. 7h
    for (std::int32_t c = 0; c < len; ++c) {
      qv[c] = static_cast<std::int16_t>(quantize_code(xv[c], eff, qmin, qmax));
    }
  }
}

#if VSQ_KERNELS_X86
__attribute__((target("avx2"))) float hmax8(__m256 m) {
  __m128 h = _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
  h = _mm_max_ps(h, _mm_movehl_ps(h, h));
  h = _mm_max_ss(h, _mm_movehdup_ps(h));
  return _mm_cvtss_f32(h);
}

__attribute__((target("avx2"))) void act_quant_avx2(const float* x, const VecRange* vr,
                                                    std::int64_t nvec, const ActQuantParams& p,
                                                    std::int16_t* q, std::uint16_t* sq) {
  const std::int64_t qmin = p.fmt.qmin(), qmax = p.fmt.qmax(), sq_max = p.scale_fmt.qmax();
  const __m256 lo = _mm256_set1_ps(static_cast<float>(qmin));
  const __m256 hi = _mm256_set1_ps(static_cast<float>(qmax));
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  for (std::int64_t v = 0; v < nvec; ++v) {
    const float* xv = x + vr[v].c0;
    std::int16_t* qv = q + vr[v].c0;
    const std::int32_t len = vr[v].len;
    const std::int32_t body = len / 8 * 8;
    __m256 m = _mm256_setzero_ps();
    for (std::int32_t c = 0; c < body; c += 8) {
      m = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(xv + c), abs_mask), m);
    }
    float amax = hmax8(m);
    for (std::int32_t c = body; c < len; ++c) amax = std::max(amax, std::abs(xv[c]));
    sq[v] = vector_scale_code(amax, qmax, p.gamma, sq_max);
    const float eff = static_cast<float>(sq[v]) * p.gamma;  // Eq. 7h
    if (!(eff > 0.0f)) {
      std::memset(qv, 0, static_cast<std::size_t>(len) * sizeof(std::int16_t));
      continue;
    }
    const __m256 e = _mm256_set1_ps(eff);
    for (std::int32_t c = 0; c < body; c += 8) {
      const __m256 t = _mm256_div_ps(_mm256_loadu_ps(xv + c), e);
      const __m256i ordered = _mm256_castps_si256(_mm256_cmp_ps(t, t, _CMP_ORD_Q));
      const __m256i i = _mm256_and_si256(
          _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(t, lo), hi)), ordered);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(qv + c),
                       _mm_packs_epi32(_mm256_castsi256_si128(i), _mm256_extracti128_si256(i, 1)));
    }
    for (std::int32_t c = body; c < len; ++c) {
      qv[c] = static_cast<std::int16_t>(quantize_code(xv[c], eff, qmin, qmax));
    }
  }
}
#endif  // VSQ_KERNELS_X86

}  // namespace

std::vector<ActQuantImpl> builtin_act_quant_impls() {
  std::vector<ActQuantImpl> impls;
  impls.push_back({"portable", isa::Tier::kPortable, act_quant_portable});
#if VSQ_KERNELS_X86
  if (isa::features().avx2) impls.push_back({"avx2", isa::Tier::kAvx2, act_quant_avx2});
#endif
  return impls;
}

}  // namespace vsq::kernels
