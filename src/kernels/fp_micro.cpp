// Built-in fp-micro implementations: the MR x NR register-tile
// microkernels of the blocked fp32 GEMM (tensor/gemm_kernel.cpp owns the
// packing and blocking; only the innermost tile multiply dispatches).
// Tile constants mirror tensor/gemm_kernel.h's kGemmMR/kGemmNR — asserted
// there at the single call site that resolves these.
//
// One rounding contract on every tier: each multiply-add acc += a * b
// rounds ONCE (a fused multiply-add), in the same k order, so every tier
// returns the same bits. The avx2_fma tier issues vfmadd; the portable
// tier calls std::fmaf, which costs a library call per multiply-add on CPUs
// without FMA but keeps VSQ_ISA=portable on the native tier's bits.
#include <algorithm>
#include <cmath>

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

constexpr int MR = 6;
constexpr int NR = 16;

void micro_portable(std::int64_t kc, const float* pa, const float* pb, float* ab) {
  float acc[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p, pa += MR, pb += NR) {
    for (int i = 0; i < MR; ++i) {
      const float av = pa[i];
      for (int j = 0; j < NR; ++j) acc[i * NR + j] = std::fmaf(av, pb[j], acc[i * NR + j]);
    }
  }
  std::copy(acc, acc + MR * NR, ab);
}

#if VSQ_KERNELS_X86
// 6x16 FMA microkernel: 12 YMM accumulators + 2 B registers + 1 broadcast.
__attribute__((target("avx2,fma"))) void micro_avx2(std::int64_t kc, const float* pa,
                                                    const float* pb, float* ab) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < kc; ++p, pa += MR, pb += NR) {
    const __m256 b0 = _mm256_load_ps(pb);
    const __m256 b1 = _mm256_load_ps(pb + 8);
    __m256 av;
    av = _mm256_broadcast_ss(pa + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(pa + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(pa + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(pa + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(pa + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(pa + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  _mm256_storeu_ps(ab + 0 * NR, c00);
  _mm256_storeu_ps(ab + 0 * NR + 8, c01);
  _mm256_storeu_ps(ab + 1 * NR, c10);
  _mm256_storeu_ps(ab + 1 * NR + 8, c11);
  _mm256_storeu_ps(ab + 2 * NR, c20);
  _mm256_storeu_ps(ab + 2 * NR + 8, c21);
  _mm256_storeu_ps(ab + 3 * NR, c30);
  _mm256_storeu_ps(ab + 3 * NR + 8, c31);
  _mm256_storeu_ps(ab + 4 * NR, c40);
  _mm256_storeu_ps(ab + 4 * NR + 8, c41);
  _mm256_storeu_ps(ab + 5 * NR, c50);
  _mm256_storeu_ps(ab + 5 * NR + 8, c51);
}
#endif  // VSQ_KERNELS_X86

}  // namespace

std::vector<FpMicroImpl> builtin_fp_micro_impls() {
  std::vector<FpMicroImpl> impls;
  impls.push_back({"portable", isa::Tier::kPortable, micro_portable});
#if VSQ_KERNELS_X86
  const isa::Features& f = isa::features();
  if (f.avx2 && f.fma) {
    impls.push_back({"avx2_fma", isa::Tier::kAvx2, micro_avx2});
  }
#endif
  return impls;
}

}  // namespace vsq::kernels
