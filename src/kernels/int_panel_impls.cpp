// Built-in implementations of the int-panel and panel-acc primitives.
// Every implementation computes EXACTLY the arithmetic of the portable
// loop — the registry's bit-exactness contract — and differs only in how
// it feeds the MAC units:
//
//   portable          plain C++ [c][j] int16 panel walk
//   avx2              8 int32 lanes per step (mullo), [c][j] panel
//   avx2_madd         [pair][j][2] interleave, _mm256_madd_epi16 (2x MACs);
//                     even vector lengths only
//   avx512_vnni       [quad][j][4] int8 panel, vpdpbusd (4 MACs/lane/step);
//                     operands must fit 8 bits (see vnni_eligible)
//
// The VNNI kernel's unsigned-by-signed trick: vpdpbusd multiplies UNSIGNED
// bytes by signed bytes, but our activations are signed. The row is biased
// to u8 (a + 128) once per row, and each panel stores, per (vector,
// output), the negated bias term
//   ncomp[v][j] = -128 * sum_c w[j][c]
// as the accumulator's initial value, so
//   ncomp + sum_c (a[c] + 128) * w[j][c] = sum_c a[c] * w[j][c]
// exactly — the zero-point compensation idiom of oneDNN's int8 GEMMs.
// Quads are zero-padded in the WEIGHTS, so the up-to-3-byte activation
// overread past a vector (or row) end contributes zero; the biased row
// buffer carries 4 zeroed tail bytes for the row end.
//
// The *_sub tiers add the packed sub-byte storage (the paper's 3-6 bit
// weights stored at 3-6 bits, not byte width — Quark's dense-layout idea):
//
//   portable_sub      kBitPacked [c] groups, scalar shift/mask unpack
//   avx2_sub          kBitPacked, srlv-based unpack-in-register, any b in 3..6
//   avx2_sub4_madd    kNibblePair, nibble->int16 expand + madd (4-bit, even V)
//   avx512_vnni_sub4  kNibbleQuad, nibble->u8-code expand + vpdpbusd (4-bit)
//
// Sub-byte codes are stored two's-complement-TRUNCATED (w & mask) and
// recovered with (code ^ s) - s, s = 1 << (b-1) — the classic
// sign-extension identity; code 0 decodes to 0, so zero-padding stays
// neutral. The VNNI sub-4 tier flips the unsigned/signed roles of the
// byte-width VNNI kernel: the 4-bit codes are stored BIASED (w + 8, in
// 0..15) and fed as vpdpbusd's unsigned operand while the activations stay
// raw s8, so sum (w+8)*a = dot + 8*sum(a); the per-row, per-vector
// compensation vcomp[v] = -8 * sum_c a[c] initializes the accumulator.
// That keeps the compensation out of the resident pack entirely (it is
// O(row) scratch), which is what lets the 4-bit pack hit its ~0.25x of the
// int16 layout instead of paying a [panel][v][j] int32 block back.
#include <algorithm>
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

constexpr int PNR = kPanelCols;

// ---- int-panel implementations --------------------------------------------

void int_panel_portable(const PanelArgs& a) {
  const auto* wp = static_cast<const std::int16_t*>(a.wp);
  for (std::int64_t v = 0; v < a.nvec; ++v) {
    const std::int16_t* ap = a.arow + a.vr[v].c0;
    const std::int32_t len = a.vr[v].len;
    std::int32_t acc[PNR] = {};
    for (std::int32_t c = 0; c < len; ++c) {
      const std::int32_t av = ap[c];
      const std::int16_t* wc = wp + static_cast<std::int64_t>(c) * PNR;
      for (int j = 0; j < PNR; ++j) acc[j] += av * wc[j];
    }
    wp += static_cast<std::int64_t>(len) * PNR;
    std::int32_t* d = a.dp + v * PNR;
    for (int j = 0; j < PNR; ++j) d[j] = acc[j];
  }
}

// Scalar unpack of the kBitPacked layout: per column, read the b-byte
// group (8 codes of b bits, LSB first), shift/mask each code out and
// sign-extend. Reference semantics for every packed tier.
void int_panel_portable_sub(const PanelArgs& a) {
  const auto* wp = static_cast<const std::uint8_t*>(a.wp);
  const int b = a.wbits;
  const std::uint64_t mask = (std::uint64_t{1} << b) - 1;
  const std::int32_t sgn = 1 << (b - 1);
  for (std::int64_t v = 0; v < a.nvec; ++v) {
    const std::int16_t* ap = a.arow + a.vr[v].c0;
    const std::int32_t len = a.vr[v].len;
    std::int32_t acc[PNR] = {};
    for (std::int32_t c = 0; c < len; ++c) {
      const std::int32_t av = ap[c];
      const std::uint8_t* g = wp + static_cast<std::int64_t>(c) * b;
      std::uint64_t bits = 0;
      for (int h = 0; h < b; ++h) bits |= static_cast<std::uint64_t>(g[h]) << (8 * h);
      for (int j = 0; j < PNR; ++j) {
        const auto code = static_cast<std::int32_t>((bits >> (j * b)) & mask);
        acc[j] += av * ((code ^ sgn) - sgn);
      }
    }
    wp += static_cast<std::int64_t>(len) * b;
    std::int32_t* d = a.dp + v * PNR;
    for (int j = 0; j < PNR; ++j) d[j] = acc[j];
  }
}

#if VSQ_KERNELS_X86
// AVX2: 8 int32 lanes = one panel-width of dot products per instruction.
__attribute__((target("avx2"))) void int_panel_avx2(const PanelArgs& a) {
  const auto* wp = static_cast<const std::int16_t*>(a.wp);
  for (std::int64_t v = 0; v < a.nvec; ++v) {
    const std::int16_t* ap = a.arow + a.vr[v].c0;
    const std::int32_t len = a.vr[v].len;
    __m256i acc = _mm256_setzero_si256();
    for (std::int32_t c = 0; c < len; ++c) {
      const __m256i av = _mm256_set1_epi32(ap[c]);
      const __m256i wv = _mm256_cvtepi16_epi32(
          _mm_load_si128(reinterpret_cast<const __m128i*>(wp + static_cast<std::int64_t>(c) * PNR)));
      acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(av, wv));
    }
    wp += static_cast<std::int64_t>(len) * PNR;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.dp + v * PNR), acc);
  }
}

// AVX2 madd variant for even vector lengths: the panel interleaves column
// PAIRS ([pair][j][2] int16), so one _mm256_madd_epi16 performs 16
// multiplies and the pairwise adds in a single instruction — 2x the MAC
// rate of the mullo path. Bit-exact: products of (<=10-bit)x(<=10-bit)
// values and their pairwise sums are exact in int32 (the caller already
// guarantees the whole V-length dot product fits int32), and integer
// addition reassociates freely.
__attribute__((target("avx2"))) void int_panel_avx2_madd(const PanelArgs& a) {
  const auto* wp = static_cast<const std::int16_t*>(a.wp);
  for (std::int64_t v = 0; v < a.nvec; ++v) {
    const std::int16_t* ap = a.arow + a.vr[v].c0;
    const std::int32_t pairs = a.vr[v].len / 2;
    __m256i acc = _mm256_setzero_si256();
    for (std::int32_t p = 0; p < pairs; ++p) {
      std::int32_t apair;
      std::memcpy(&apair, ap + 2 * p, sizeof(apair));  // (a[2p], a[2p+1])
      const __m256i av = _mm256_set1_epi32(apair);
      const __m256i wv = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(wp + static_cast<std::int64_t>(p) * 2 * PNR));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wv, av));
    }
    wp += static_cast<std::int64_t>(pairs) * 2 * PNR;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.dp + v * PNR), acc);
  }
}

// AVX512-VNNI (VL-encoded, 256-bit): one vpdpbusd per column QUAD — 4
// u8 x s8 MACs per lane per instruction, 4x the madd path's MAC rate on
// 8-bit-and-under operands. Consumes the biased-u8 row image (a.arow8) and
// the [quad][j][4] int8 panel; the accumulator starts at the panel's
// compensation block (see the file comment) so results equal the signed
// dot product bit-for-bit. vpdpbusd WRAPS on int32 overflow (it is the
// non-saturating form), which vnni_eligible's range guard rules out.
__attribute__((target("avx512vnni,avx512vl,avx512bw,avx512f"))) void int_panel_vnni(
    const PanelArgs& a) {
  const auto* wp = static_cast<const std::int8_t*>(a.wp);
  for (std::int64_t v = 0; v < a.nvec; ++v) {
    const std::uint8_t* ap = a.arow8 + a.vr[v].c0;
    const std::int32_t quads = (a.vr[v].len + 3) / 4;
    __m256i acc =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(a.ncomp + v * PNR));
    for (std::int32_t q = 0; q < quads; ++q) {
      std::uint32_t aquad;
      std::memcpy(&aquad, ap + 4 * q, sizeof(aquad));  // (a[4q..4q+3]) biased u8
      const __m256i av = _mm256_set1_epi32(static_cast<std::int32_t>(aquad));
      const __m256i wv = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(wp + static_cast<std::int64_t>(q) * 4 * PNR));
      acc = _mm256_dpbusd_epi32(acc, av, wv);
    }
    wp += static_cast<std::int64_t>(quads) * 4 * PNR;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.dp + v * PNR), acc);
  }
}

// AVX2 unpack-in-register over the kBitPacked layout, any b in 3..6: one
// variable shift (vpsrlvd) fans the column's 8 codes into the 8 int32
// lanes, mask + xor/sub sign-extends, then the mullo accumulate of the
// plain AVX2 path. For b > 4 the group spans 5-6 bytes, so the codes are
// extracted in 64-bit lanes (even and odd j separately, max shift 7b = 42)
// and re-blended into 8x32. Group loads memcpy a fixed 4/8 bytes; the
// panel's 8 slack bytes keep the tail overread in-allocation.
__attribute__((target("avx2"))) void int_panel_avx2_sub(const PanelArgs& a) {
  const auto* wp = static_cast<const std::uint8_t*>(a.wp);
  const int b = a.wbits;
  const __m256i mask = _mm256_set1_epi32((1 << b) - 1);
  const __m256i sgn = _mm256_set1_epi32(1 << (b - 1));
  if (b <= 4) {
    const __m256i sh =
        _mm256_setr_epi32(0, b, 2 * b, 3 * b, 4 * b, 5 * b, 6 * b, 7 * b);
    for (std::int64_t v = 0; v < a.nvec; ++v) {
      const std::int16_t* ap = a.arow + a.vr[v].c0;
      const std::int32_t len = a.vr[v].len;
      __m256i acc = _mm256_setzero_si256();
      for (std::int32_t c = 0; c < len; ++c) {
        std::uint32_t g;
        std::memcpy(&g, wp + static_cast<std::int64_t>(c) * b, sizeof(g));
        const __m256i codes = _mm256_and_si256(
            _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<std::int32_t>(g)), sh), mask);
        const __m256i wv = _mm256_sub_epi32(_mm256_xor_si256(codes, sgn), sgn);
        acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(_mm256_set1_epi32(ap[c]), wv));
      }
      wp += static_cast<std::int64_t>(len) * b;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.dp + v * PNR), acc);
    }
  } else {
    const __m256i she = _mm256_setr_epi64x(0, 2 * b, 4 * b, 6 * b);
    const __m256i sho = _mm256_setr_epi64x(b, 3 * b, 5 * b, 7 * b);
    for (std::int64_t v = 0; v < a.nvec; ++v) {
      const std::int16_t* ap = a.arow + a.vr[v].c0;
      const std::int32_t len = a.vr[v].len;
      __m256i acc = _mm256_setzero_si256();
      for (std::int32_t c = 0; c < len; ++c) {
        std::uint64_t g;
        std::memcpy(&g, wp + static_cast<std::int64_t>(c) * b, sizeof(g));
        const __m256i gv = _mm256_set1_epi64x(static_cast<long long>(g));
        // Codes for j = 0,2,4,6 land in the low 32 bits of the 64-bit
        // lanes; odd j shifted up 32 and blended into the odd 32-lanes.
        const __m256i even = _mm256_srlv_epi64(gv, she);
        const __m256i odd = _mm256_slli_epi64(_mm256_srlv_epi64(gv, sho), 32);
        const __m256i codes =
            _mm256_and_si256(_mm256_blend_epi32(even, odd, 0xAA), mask);
        const __m256i wv = _mm256_sub_epi32(_mm256_xor_si256(codes, sgn), sgn);
        acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(_mm256_set1_epi32(ap[c]), wv));
      }
      wp += static_cast<std::int64_t>(len) * b;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.dp + v * PNR), acc);
    }
  }
}

// AVX2 madd over the kNibblePair layout (4-bit, even vector lengths): one
// 8-byte load carries a column PAIR for all 8 outputs; cvtepu8 widens to
// int16 lanes, the lo/hi nibbles split into the even/odd columns, xor/sub
// sign-extends, and an unpack rebuilds the exact [pair][j][2] int16
// register the madd path consumes — 16 bytes of panel traffic per madd
// instead of the byte-width path's 32.
// The main loop takes pairs TWO at a time: a 16-byte load covers both,
// cvtepu8_epi16 widens once at 256 bits, and the per-128-lane unpacks
// land pair p in lane 0 and pair p+1 in lane 1 of each product register
// — the lanes accumulate disjoint column subsets of the same outputs
// (j0..3 in acc_lo, j4..7 in acc_hi) and are summed crosswise once per
// vector, bit-identical by associativity of int32 addition.
__attribute__((target("avx2"))) void int_panel_avx2_sub4_madd(const PanelArgs& a) {
  const auto* wp = static_cast<const std::uint8_t*>(a.wp);
  const __m128i mask4 = _mm_set1_epi16(0x000F);
  const __m128i sgn4 = _mm_set1_epi16(8);
  const __m256i mask4w = _mm256_set1_epi16(0x000F);
  const __m256i sgn4w = _mm256_set1_epi16(8);
  // Replicates activation pair k of an 8-byte load into 128-bit lane k.
  const __m256i aidx = _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1);
  for (std::int64_t v = 0; v < a.nvec; ++v) {
    const std::int16_t* ap = a.arow + a.vr[v].c0;
    const std::int32_t pairs = a.vr[v].len / 2;
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    std::int32_t p = 0;
    for (; p + 2 <= pairs; p += 2) {
      const __m256i av = _mm256_permutevar8x32_epi32(
          _mm256_zextsi128_si256(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ap + 2 * p))),
          aidx);
      const __m256i raw = _mm256_cvtepu8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(wp + static_cast<std::int64_t>(p) * PNR)));
      const __m256i lo =
          _mm256_sub_epi16(_mm256_xor_si256(_mm256_and_si256(raw, mask4w), sgn4w), sgn4w);
      const __m256i hi =
          _mm256_sub_epi16(_mm256_xor_si256(_mm256_srli_epi16(raw, 4), sgn4w), sgn4w);
      acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(_mm256_unpacklo_epi16(lo, hi), av));
      acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(_mm256_unpackhi_epi16(lo, hi), av));
    }
    __m128i r_lo = _mm_add_epi32(_mm256_castsi256_si128(acc_lo),
                                 _mm256_extracti128_si256(acc_lo, 1));
    __m128i r_hi = _mm_add_epi32(_mm256_castsi256_si128(acc_hi),
                                 _mm256_extracti128_si256(acc_hi, 1));
    if (p < pairs) {  // odd pair count: one 8-byte tail
      std::int32_t apair;
      std::memcpy(&apair, ap + 2 * p, sizeof(apair));  // (a[2p], a[2p+1])
      const __m256i av = _mm256_set1_epi32(apair);
      const __m128i raw = _mm_cvtepu8_epi16(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(wp + static_cast<std::int64_t>(p) * PNR)));
      const __m128i lo =
          _mm_sub_epi16(_mm_xor_si128(_mm_and_si128(raw, mask4), sgn4), sgn4);
      const __m128i hi = _mm_sub_epi16(_mm_xor_si128(_mm_srli_epi16(raw, 4), sgn4), sgn4);
      const __m256i wv = _mm256_set_m128i(_mm_unpackhi_epi16(lo, hi),
                                          _mm_unpacklo_epi16(lo, hi));
      const __m256i tail = _mm256_madd_epi16(wv, av);
      r_lo = _mm_add_epi32(r_lo, _mm256_castsi256_si128(tail));
      r_hi = _mm_add_epi32(r_hi, _mm256_extracti128_si256(tail, 1));
    }
    wp += static_cast<std::int64_t>(pairs) * PNR;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.dp + v * PNR),
                        _mm256_set_m128i(r_hi, r_lo));
  }
}

// AVX512-VNNI over the kNibbleQuad layout (4-bit): one 16-byte load
// carries a column QUAD for all 8 outputs as biased-unsigned nibble codes;
// and/srli/unpack expands them to the [quad][j][4] u8 register and
// vpdpbusd multiplies them (as the UNSIGNED operand) against the raw s8
// activation quad. The accumulator starts at the row's compensation
// vcomp[v] = -8 * sum_c a[c] (see the file comment); padding code 0
// contributes nothing, so the quad overread of the activation row is
// neutral exactly as in the byte-width VNNI tier.
// The loops below take quads FOUR (then two) at a time: one wide load
// covers them, the nibble split runs once at full register width, and
// unpack{lo,hi}_epi8's per-128-lane semantics land quad q+k in lane k of
// each product register. The lanes therefore accumulate DISJOINT column
// subsets for the same 8 outputs and are summed crosswise once per
// vector — int32 wrapping addition is associative, so the regrouping is
// bit-identical to the quad-at-a-time order.
//
// GCC's 512-bit permute/extract intrinsics expand through
// _mm512_undefined_epi32(), whose self-initialized temporary trips
// -Wmaybe-uninitialized under -Werror (GCC PR105593); the diagnostics are
// suppressed for just this function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
__attribute__((target("avx512vnni,avx512vl,avx512bw,avx512f"))) void int_panel_vnni_sub4(
    const PanelArgs& a) {
  const auto* wp = static_cast<const std::uint8_t*>(a.wp);
  const __m128i mask4 = _mm_set1_epi8(0x0F);
  const __m256i mask4w = _mm256_set1_epi8(0x0F);
  const __m512i mask4z = _mm512_set1_epi8(0x0F);
  // Replicates activation quad k of a 16-byte load into 128-bit lane k.
  const __m512i aidx = _mm512_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3);
  const __m256i aidx2 = _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1);
  for (std::int64_t v = 0; v < a.nvec; ++v) {
    const std::uint8_t* ap = a.arow8 + a.vr[v].c0;
    const std::int32_t quads = (a.vr[v].len + 3) / 4;
    // Lane-split accumulators: each 128-bit lane holds the partial sums
    // of a different quad subset for the same outputs (j0..3 in *_lo,
    // j4..7 in *_hi); lanes are summed crosswise once per vector. The
    // compensation joins after that — seeding it into a lane-split
    // register would count it multiple times.
    std::int32_t q = 0;
    __m256i acc_lo, acc_hi;
    {
      // Main loop: FOUR quads per iteration — one 64-byte panel load, a
      // 512-bit nibble split, and per-lane unpacks landing quad q+k in
      // lane k. The serving configuration's 16-column vectors take
      // exactly one trip.
      __m512i zlo = _mm512_setzero_si512();
      __m512i zhi = _mm512_setzero_si512();
      for (; q + 4 <= quads; q += 4) {
        const __m512i av = _mm512_permutexvar_epi32(
            aidx, _mm512_zextsi128_si512(
                      _mm_loadu_si128(reinterpret_cast<const __m128i*>(ap + 4 * q))));
        const __m512i raw =
            _mm512_loadu_si512(wp + static_cast<std::int64_t>(q) * 2 * PNR);
        const __m512i lo = _mm512_and_si512(raw, mask4z);                      // c0, c2
        const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(raw, 4), mask4z);  // c1, c3
        zlo = _mm512_dpbusd_epi32(zlo, _mm512_unpacklo_epi8(lo, hi), av);
        zhi = _mm512_dpbusd_epi32(zhi, _mm512_unpackhi_epi8(lo, hi), av);
      }
      acc_lo = _mm256_add_epi32(_mm512_castsi512_si256(zlo),
                                _mm512_extracti64x4_epi64(zlo, 1));
      acc_hi = _mm256_add_epi32(_mm512_castsi512_si256(zhi),
                                _mm512_extracti64x4_epi64(zhi, 1));
    }
    for (; q + 2 <= quads; q += 2) {  // two-quad step for 5..7-column tails
      const __m256i av = _mm256_permutevar8x32_epi32(
          _mm256_zextsi128_si256(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ap + 4 * q))),
          aidx2);
      const __m256i raw = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(wp + static_cast<std::int64_t>(q) * 2 * PNR));
      const __m256i lo = _mm256_and_si256(raw, mask4w);                      // c0, c2
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(raw, 4), mask4w);  // c1, c3
      acc_lo = _mm256_dpbusd_epi32(acc_lo, _mm256_unpacklo_epi8(lo, hi), av);
      acc_hi = _mm256_dpbusd_epi32(acc_hi, _mm256_unpackhi_epi8(lo, hi), av);
    }
    const __m128i comp = _mm_set1_epi32(a.vcomp[v]);
    __m128i r_lo = _mm_add_epi32(
        comp, _mm_add_epi32(_mm256_castsi256_si128(acc_lo),
                            _mm256_extracti128_si256(acc_lo, 1)));
    __m128i r_hi = _mm_add_epi32(
        comp, _mm_add_epi32(_mm256_castsi256_si128(acc_hi),
                            _mm256_extracti128_si256(acc_hi, 1)));
    if (q < quads) {  // odd quad count: one 16-byte tail
      std::uint32_t aquad;
      std::memcpy(&aquad, ap + 4 * q, sizeof(aquad));
      const __m256i av = _mm256_set1_epi32(static_cast<std::int32_t>(aquad));
      const __m128i raw = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(wp + static_cast<std::int64_t>(q) * 2 * PNR));
      const __m128i lo = _mm_and_si128(raw, mask4);
      const __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask4);
      const __m256i wv =
          _mm256_set_m128i(_mm_unpackhi_epi8(lo, hi), _mm_unpacklo_epi8(lo, hi));
      const __m256i tail = _mm256_dpbusd_epi32(_mm256_setzero_si256(), wv, av);
      r_lo = _mm_add_epi32(r_lo, _mm256_castsi256_si128(tail));
      r_hi = _mm_add_epi32(r_hi, _mm256_extracti128_si256(tail, 1));
    }
    wp += static_cast<std::int64_t>(quads) * 2 * PNR;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.dp + v * PNR),
                        _mm256_set_m128i(r_hi, r_lo));
  }
}
#pragma GCC diagnostic pop
#endif  // VSQ_KERNELS_X86

bool madd_eligible(const KernelDesc& d) { return d.shape.even_vectors; }

// The packed tiers serve signed 3-6 bit weights: truncated two's-complement
// codes round-trip exactly only over the signed b-bit range, and 7-bit
// codes would not pack denser than a byte anyway.
bool bitpacked_eligible(const KernelDesc& d) {
  const QuantFormatLite& w = d.quant.wgt;
  return w.is_signed && w.bits >= 3 && w.bits <= 6;
}

bool nibble_pair_eligible(const KernelDesc& d) {
  return d.quant.wgt.bits == 4 && d.quant.wgt.is_signed && d.shape.even_vectors;
}

// The packed VNNI tier is exact only when (1) the activation fits raw s8
// (it is the SIGNED vpdpbusd operand here — unsigned 8-bit activations do
// not fit), and (2) the wrapping accumulator can never leave int32: it
// runs from the compensation term (8 * amax * len) through the biased
// partial sums (15 * amax * padded-len), folded into one conservative
// product below.
bool nibble_quad_eligible(const KernelDesc& d) {
  if (d.quant.wgt.bits != 4 || !d.quant.wgt.is_signed) return false;
  const QuantFormatLite& a = d.quant.act;
  if (a.qmax() > 127 || a.qmin() < -128) return false;
  const std::int64_t amax = std::max(std::abs(a.qmin()), a.qmax());
  const std::int64_t plen = (std::max<std::int64_t>(d.shape.max_vec_len, 1) + 3) / 4 * 4;
  return (15 + 8) * amax * plen <= INT32_MAX;
}

// The VNNI path is exact only when (1) the biased activation fits u8,
// (2) the weight fits s8, and (3) the wrapping vpdpbusd accumulator can
// never leave int32: the running value is bounded by the compensation term
// (128 * wmax * len) plus the biased partial sums ((amax + 128) * wmax *
// padded-len), folded into one conservative product below.
bool vnni_eligible(const KernelDesc& d) {
  const QuantFormatLite& a = d.quant.act;
  const QuantFormatLite& w = d.quant.wgt;
  const std::int64_t bias = a.is_signed ? 128 : 0;
  if (a.qmax() + bias > 255 || a.qmin() + bias < 0) return false;
  if (w.qmax() > 127 || w.qmin() < -128) return false;
  const std::int64_t wmax = std::max(std::abs(w.qmin()), w.qmax());
  const std::int64_t plen = (std::max<std::int64_t>(d.shape.max_vec_len, 1) + 3) / 4 * 4;
  return (a.qmax() + 2 * bias) * wmax * plen <= INT32_MAX;
}

// ---- panel-acc implementations --------------------------------------------

void panel_acc_portable(const std::int32_t* dp, const std::uint32_t* wsq,
                        const std::uint16_t* asq, std::int64_t vpr, int full_bits,
                        int scale_product_bits, std::int64_t* acc) {
  for (std::int64_t v = 0; v < vpr; ++v) {
    const std::uint32_t as_v = asq ? asq[v] : 1;
    const std::int32_t* dv = dp + v * PNR;
    const std::uint32_t* sv = wsq + v * PNR;
    for (int j = 0; j < PNR; ++j) {
      const std::uint32_t sp = round_scale_product(as_v * sv[j], full_bits, scale_product_bits);
      acc[j] += static_cast<std::int64_t>(dv[j]) * sp;
    }
  }
}

#if VSQ_KERNELS_X86
// 8 scale-multiply-accumulates per step: widen dp and the (rounded) scale
// products into 64-bit lanes and fuse into two int64 accumulators. Valid
// while every scale product fits 31 bits (max_full_bits = 30 below).
__attribute__((target("avx2"))) void panel_acc_avx2(const std::int32_t* dp,
                                                    const std::uint32_t* wsq,
                                                    const std::uint16_t* asq, std::int64_t vpr,
                                                    int full_bits, int scale_product_bits,
                                                    std::int64_t* acc) {
  const bool do_round = scale_product_bits > 0 && scale_product_bits < full_bits;
  const int shift = do_round ? full_bits - scale_product_bits : 0;
  const __m256i half = _mm256_set1_epi32(do_round ? 1 << (shift - 1) : 0);
  __m256i acc_even = _mm256_setzero_si256();  // j = 0, 2, 4, 6
  __m256i acc_odd = _mm256_setzero_si256();   // j = 1, 3, 5, 7
  for (std::int64_t v = 0; v < vpr; ++v) {
    const std::int32_t as_v = asq ? asq[v] : 1;
    __m256i sp = _mm256_mullo_epi32(
        _mm256_set1_epi32(as_v),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wsq + v * PNR)));
    if (do_round) {
      sp = _mm256_slli_epi32(_mm256_srli_epi32(_mm256_add_epi32(sp, half), shift), shift);
    }
    const __m256i dv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dp + v * PNR));
    // mul_epi32 multiplies the low 32 bits of each 64-bit lane (lanes
    // 0/2/4/6 of the 8x32 view) into exact 64-bit products.
    acc_even = _mm256_add_epi64(acc_even, _mm256_mul_epi32(dv, sp));
    acc_odd = _mm256_add_epi64(
        acc_odd, _mm256_mul_epi32(_mm256_srli_epi64(dv, 32), _mm256_srli_epi64(sp, 32)));
  }
  alignas(32) std::int64_t even[4], odd[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(even), acc_even);
  _mm256_store_si256(reinterpret_cast<__m256i*>(odd), acc_odd);
  for (int h = 0; h < 4; ++h) {
    acc[2 * h] = even[h];
    acc[2 * h + 1] = odd[h];
  }
}
#endif  // VSQ_KERNELS_X86

}  // namespace

// The int-panel preference list: resolve_int_panel binds the first entry
// that is under the VSQ_ISA cap and eligible (registry.h gives the order
// and its measurements). Sub-byte layouts first, then byte-width, each
// fastest first; the plain portable loop ends the list and is always
// eligible. Entries above the CPU's tier are left out.
std::vector<IntPanelImpl> builtin_int_panel_impls() {
  const IntPanelImpl preference[] = {
#if VSQ_KERNELS_X86
      {"avx512_vnni_sub4", isa::Tier::kAvx512Vnni, PanelLayout::kNibbleQuad,
       RowImage::kSignedI8, nibble_quad_eligible, int_panel_vnni_sub4},
      {"avx2_sub4_madd", isa::Tier::kAvx2, PanelLayout::kNibblePair, RowImage::kNone,
       nibble_pair_eligible, int_panel_avx2_sub4_madd},
      {"avx2_sub", isa::Tier::kAvx2, PanelLayout::kBitPacked, RowImage::kNone,
       bitpacked_eligible, int_panel_avx2_sub},
#endif
      {"portable_sub", isa::Tier::kPortable, PanelLayout::kBitPacked, RowImage::kNone,
       bitpacked_eligible, int_panel_portable_sub},
#if VSQ_KERNELS_X86
      {"avx512_vnni", isa::Tier::kAvx512Vnni, PanelLayout::kQuadInt8, RowImage::kBiasedU8,
       vnni_eligible, int_panel_vnni},
      {"avx2_madd", isa::Tier::kAvx2, PanelLayout::kPairInterleaved, RowImage::kNone,
       madd_eligible, int_panel_avx2_madd},
      {"avx2", isa::Tier::kAvx2, PanelLayout::kPlain, RowImage::kNone, nullptr,
       int_panel_avx2},
#endif
      {"portable", isa::Tier::kPortable, PanelLayout::kPlain, RowImage::kNone, nullptr,
       int_panel_portable},
  };
  const isa::Tier top = isa::max_cpu_tier();
  std::vector<IntPanelImpl> impls;
  for (const IntPanelImpl& impl : preference) {
    if (static_cast<int>(impl.tier) <= static_cast<int>(top)) impls.push_back(impl);
  }
  return impls;
}

std::vector<PanelAccImpl> builtin_panel_acc_impls() {
  std::vector<PanelAccImpl> impls;
  impls.push_back({"portable", isa::Tier::kPortable, /*max_full_bits=*/64, panel_acc_portable});
#if VSQ_KERNELS_X86
  if (isa::features().avx2) {
    impls.push_back({"avx2", isa::Tier::kAvx2, /*max_full_bits=*/30, panel_acc_avx2});
  }
#endif
  return impls;
}

}  // namespace vsq::kernels
