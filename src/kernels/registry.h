// Primitive dispatch registry for the compute kernels, after oneDNN's
// primitive-descriptor idiom: a caller describes WHAT it needs — the op,
// the shape class, the quantization attributes — and the registry resolves
// WHICH implementation runs, once, at descriptor-creation time. The
// resolved implementation is then applied to many executions (the packed
// weight panels of a layer live for the deployment; the fp microkernel for
// the process), so steady-state serving performs zero dispatch lookups —
// asserted by tests via dispatch_resolutions_total().
//
// Five primitive kinds cover the library today:
//   int-panel   the per-vector integer dot-product microkernel (the VS-Quant
//               MAC array): one activation row x one packed weight panel ->
//               kPanelCols dot products per vector
//   panel-acc   the scale-multiply-accumulate reduction over a panel's
//               vectors (the datapath's int64 accumulator)
//   act-quant   the PPU's two-level activation quantizer over one row:
//               per vector, runtime amax -> integer scale sq -> integer
//               elements (Eq. 7g-7h)
//   gelu        GELU's tanh approximation over a float array (the
//               transformer FFN's activation, run in fp32 between the
//               integer GEMMs)
//   fp-micro    the MR x NR register-tile microkernel of the fp32 GEMM
//
// Implementations carry an ISA tier (kernels/isa.h) and an eligibility
// predicate over the descriptor. Every tier computes EXACTLY the same
// arithmetic — integer kernels are exact, fp-micro tiers share one
// accumulation order and round each multiply-add once, and the act-quant
// and gelu tiers perform their scalar definition's IEEE operations lane
// for lane — so dispatch can change speed, never results. panel-acc,
// act-quant, gelu and fp-micro resolve to the highest tier the CPU (and
// the VSQ_ISA cap) allows.
//
// int-panel resolution walks one fixed preference list, as oneDNN walks
// its implementation list, and takes the first kernel that is under the
// cap, is eligible for the descriptor, and is not sub-byte when
// VSQ_PACKED=0:
//
//   avx512_vnni_sub4  avx2_sub4_madd  avx2_sub  portable_sub   (sub-byte)
//   avx512_vnni       avx2_madd       avx2      portable       (byte-width)
//
// Sub-byte panels come first, density-first (registry.cpp's
// packed_enabled gives the trade). Within each family the list is fastest
// first at every served shape. BM_IntPanel (bench/micro_kernels.cpp), ns
// per call at V=16 with 4-bit weights and s8 activations, median of 21
// randomly interleaved repetitions on a 4-vCPU AVX-512 VNNI Xeon VM (GCC
// 12.2, Release). 27 columns is the tiny_conv stem (odd vectors, so no
// madd kernel is eligible), 72 a tiny_conv 3x3 conv, 256 the tiny MLP's
// fc1:
//
//   cols  avx512_vnni_sub4  avx2_sub4_madd  avx2_sub  portable_sub
//    27         13.5               -          41.8        239
//    72         26.1             43.6         99.7        595
//   256         83.5              150          346       2152
//
//   cols  avx512_vnni  avx2_madd  avx2  portable
//    27       9.9          -      30.7    73.5
//    72      24.0        34.8     83.9     186
//   256      74.3         120      301     692
//
// One package therefore binds the same kernels on every load, however
// busy the host is.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "kernels/isa.h"

namespace vsq::kernels {

// Weight rows per packed panel: a panel microkernel produces kPanelCols
// dot products per vector at once from a j-contiguous panel.
inline constexpr int kPanelCols = 8;

struct VecRange {
  std::int32_t c0;
  std::int32_t len;
};

// The shape class of one resolved layer: the geometry eligibility
// depends on, far less than the full operand.
struct ShapeClass {
  std::int64_t max_vec_len = 0;  // longest per-vector dot product
  bool even_vectors = false;     // every vector length even
};

// quant/format.h's QuantFormat, mirrored so the kernel layer stays below
// the quant layer in the include order. Aggregate-identical on purpose.
struct QuantFormatLite {
  int bits = 8;
  bool is_signed = true;

  std::int64_t max_level() const { return (std::int64_t{1} << (is_signed ? bits - 1 : bits)) - 1; }
  std::int64_t qmin() const { return is_signed ? -max_level() : 0; }
  std::int64_t qmax() const { return max_level(); }
};

// Quantization attributes bound at descriptor creation, oneDNN-style: the
// operand formats decide eligibility (e.g. the int8 VNNI kernel needs both
// operands to fit 8 bits and the biased-u8 accumulation to stay in int32).
struct QuantAttrs {
  QuantFormatLite act{8, true};
  QuantFormatLite wgt{8, true};
  int full_bits = 0;  // combined width of the per-vector scale product
};

struct KernelDesc {
  ShapeClass shape;
  QuantAttrs quant;
};

// ---- int-panel primitive ---------------------------------------------------

// How IntWeightPanels must lay the weights out for an implementation. The
// first three store every code at byte-or-wider width; the k*Packed tiers
// store b-bit codes densely and unpack IN REGISTERS (shift/mask) inside the
// microkernel, so a 4-bit model streams half the weight bytes of kQuadInt8
// and a quarter of kPlain.
enum class PanelLayout {
  kPlain,            // [c][j] int16
  kPairInterleaved,  // [pair][j][2] int16 (madd; even vector lengths only)
  kQuadInt8,         // [quad][j][4] int8, quads zero-padded (VNNI)
  kBitPacked,        // [c] groups of 8 j-codes x wbits bits, LSB-first
                     // (codes = w & mask, two's-complement truncated);
                     // b bytes per column + 8 slack bytes per panel
  kNibblePair,       // [pair][j] u8: lo nibble = even col, hi = odd col
                     // (codes = w & 0xF; even vector lengths only)
  kNibbleQuad,       // [quad][j][2] u8: byte h packs cols 2h / 2h+1 as
                     // lo/hi nibbles; codes BIASED (w + 8), padding code 0
                     // (VNNI: codes are the unsigned vpdpbusd operand)
};

inline const char* panel_layout_name(PanelLayout l) {
  switch (l) {
    case PanelLayout::kPlain: return "plain-i16";
    case PanelLayout::kPairInterleaved: return "pair-i16";
    case PanelLayout::kQuadInt8: return "quad-i8";
    case PanelLayout::kBitPacked: return "bitpacked";
    case PanelLayout::kNibblePair: return "nibble-pair";
    case PanelLayout::kNibbleQuad: return "nibble-quad";
  }
  return "?";
}

// True when the layout stores codes below byte width.
inline bool panel_layout_sub_byte(PanelLayout l) {
  return l == PanelLayout::kBitPacked || l == PanelLayout::kNibblePair ||
         l == PanelLayout::kNibbleQuad;
}

// Which per-row activation image an implementation consumes beside the
// int16 row: the VNNI int8 tier needs the row rebiased to u8; the packed
// VNNI tier keeps the row signed (the WEIGHT codes are the unsigned
// operand) and needs the per-vector row-sum compensation block instead.
enum class RowImage {
  kNone,      // arow only
  kBiasedU8,  // arow8[c] = a[c] + 128 (+ 4 zero tail bytes)
  kSignedI8,  // arow8[c] = (uint8)(int8)a[c] (+ tail) and vcomp[v] = -bias * sum_c a[c]
};

// Execution arguments of one (activation row) x (weight panel) pass.
// arow8/ncomp/vcomp/wbits are set only for layouts that need them
// (kQuadInt8: the biased-u8 row image and the panel's compensation block;
// the packed tiers: the code width and, for kNibbleQuad, the signed row
// image plus the per-ROW compensation block — see int_panel_impls.cpp).
struct PanelArgs {
  const std::int16_t* arow = nullptr;
  const std::uint8_t* arow8 = nullptr;
  const void* wp = nullptr;            // packed panel, layout per the impl
  const std::int32_t* ncomp = nullptr; // [v][j] accumulator init (else zero)
  const std::int32_t* vcomp = nullptr; // [v] row-sum compensation (kSignedI8)
  const VecRange* vr = nullptr;
  std::int64_t nvec = 0;
  int wbits = 0;                       // code width of packed layouts
  std::int32_t* dp = nullptr;          // out: [v][j] int32 dot products
};

using IntPanelFn = void (*)(const PanelArgs&);

struct IntPanelImpl {
  const char* name;
  isa::Tier tier;
  PanelLayout layout = PanelLayout::kPlain;
  RowImage row_image = RowImage::kNone;
  // Can this implementation compute desc exactly? (nullptr = always.)
  bool (*eligible)(const KernelDesc&) = nullptr;
  IntPanelFn fn = nullptr;
};

// ---- panel-acc primitive ---------------------------------------------------

// Round an unsigned scale product to keep `bits` MSBs of a `full_bits`-wide
// value (round-half-up) — the paper's Fig. 3 energy optimization. The
// canonical definition; vsq::round_scale_product (quant/int_gemm.h)
// forwards here so the kernel implementations and the quant layer cannot
// drift apart.
inline std::uint32_t round_scale_product(std::uint32_t p, int full_bits, int bits) {
  if (bits <= 0 || bits >= full_bits) return p;
  const int shift = full_bits - bits;
  const std::uint32_t half = 1u << (shift - 1);
  return ((p + half) >> shift) << shift;
}

// acc[j] += round(asq[v] * wsq[v*kPanelCols+j]) * dp[v*kPanelCols+j] over
// a panel's vectors (asq == nullptr -> scale 1, the coarse bypass).
using PanelAccFn = void (*)(const std::int32_t* dp, const std::uint32_t* wsq,
                            const std::uint16_t* asq, std::int64_t vpr, int full_bits,
                            int scale_product_bits, std::int64_t* acc);

struct PanelAccImpl {
  const char* name;
  isa::Tier tier;
  int max_full_bits = 64;  // valid while the scale product width fits this
  PanelAccFn fn = nullptr;
};

// ---- act-quant primitive ---------------------------------------------------

// Eq. 2 for one element: x / scale rounded to nearest (half-even under the
// default rounding mode) and clipped to [qmin, qmax]. The clip runs in
// float BEFORE the conversion, so a value at or beyond the integer range
// (1e19, +-inf) saturates instead of wrapping through INT64_MIN; NaN maps
// to 0, as does every element under a scale <= 0. The canonical
// definition: vsq::quantize_value (quant/format.h) forwards here, and
// every act-quant tier reproduces it lane for lane. The final integer
// clamp only matters for formats wider than float's 24-bit mantissa.
inline std::int64_t quantize_code(float x, float scale, std::int64_t qmin, std::int64_t qmax) {
  if (scale <= 0.0f) return 0;
  const float t = x / scale;
  if (std::isnan(t)) return 0;
  const float c = std::clamp(t, static_cast<float>(qmin), static_cast<float>(qmax));
  return std::clamp(static_cast<std::int64_t>(std::nearbyint(c)), qmin, qmax);
}

// Eq. 7g for one vector: its integer scale sq = round(s / gamma) clipped
// to [0, sq_max], where s = amax / qmax is the vector's Eq. 1 scale (0 for
// amax <= 0). gamma <= 0 (or NaN) gives sq = 0, and so does a NaN ratio.
// One scalar definition that every act-quant tier calls per vector, so
// only the element passes differ between tiers.
inline std::uint16_t vector_scale_code(float amax, std::int64_t qmax, float gamma,
                                       std::int64_t sq_max) {
  if (!(gamma > 0.0f)) return 0;
  const float s = amax <= 0.0f ? 0.0f : amax / static_cast<float>(qmax);
  const float r = std::nearbyint(s / gamma);
  return static_cast<std::uint16_t>(r > 0.0f ? std::min(r, static_cast<float>(sq_max)) : 0.0f);
}

// What an act-quant kernel quantizes with: the element and per-vector
// scale formats of the layer's activation spec and its calibrated gamma.
struct ActQuantParams {
  QuantFormatLite fmt{8, true};
  QuantFormatLite scale_fmt{8, false};
  float gamma = 0.0f;
};

// One activation row through the two-level quantizer: for each of the
// nvec vectors vr[v], amax = max |x[c]| (NaN elements skipped, as
// std::max(amax, NaN) does), sq[v] = vector_scale_code(amax, ...), and
// q[c] = quantize_code(x[c], sq[v] * gamma, qmin, qmax). Codes must fit
// int16 (element formats up to 10 bits, checked by the callers).
using ActQuantFn = void (*)(const float* x, const VecRange* vr, std::int64_t nvec,
                            const ActQuantParams& p, std::int16_t* q, std::uint16_t* sq);

struct ActQuantImpl {
  const char* name;
  isa::Tier tier;
  ActQuantFn fn = nullptr;
};

// ---- gelu primitive --------------------------------------------------------

// GELU's tanh approximation, 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
inline constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
inline constexpr float kGeluCubic = 0.044715f;

// tanh in float by fdlibm's algorithm (tanhf over expm1f), the one glibc
// 2.36 ships as tanhf: gelu_impls.cpp holds the port.
float tanh_fdlibm(float x);

// GELU for one element, evaluated left to right in float with
// tanh_fdlibm. The canonical definition: vsq::gelu_value
// (nn/activations.h) forwards here, and every gelu tier reproduces it
// lane for lane.
float gelu_element(float x);

// y[i] = gelu_element(x[i]) for 0 <= i < n.
using GeluFn = void (*)(const float* x, std::int64_t n, float* y);

struct GeluImpl {
  const char* name;
  isa::Tier tier;
  GeluFn fn = nullptr;
};

// ---- fp-micro primitive ----------------------------------------------------

// ab[MR*NR] = A_panel * B_panel over kc (tensor/gemm_kernel.h tiling).
using GemmMicroFn = void (*)(std::int64_t kc, const float* pa, const float* pb, float* ab);

struct FpMicroImpl {
  const char* name;
  isa::Tier tier;
  GemmMicroFn fn = nullptr;
};

// ---- resolution ------------------------------------------------------------

// Pick the implementation for a descriptor under the current VSQ_ISA cap
// (isa::effective_cap(); throws std::invalid_argument on an unknown
// VSQ_ISA value): the first eligible int-panel kernel of the preference
// list above, the highest-tier panel-acc that fits full_bits. The portable
// tier is always present and always eligible, so resolution cannot fail.
// Returned references stay valid for the process lifetime. Each call
// counts one dispatch resolution.
const IntPanelImpl& resolve_int_panel(const KernelDesc& desc);
const PanelAccImpl& resolve_panel_acc(const KernelDesc& desc);

// The act-quant, gelu and fp microkernels have no per-layer descriptor
// (every tier handles every format and shape): the highest tier under the
// cap wins, cached per VSQ_ISA value, and only a cache miss counts as a
// dispatch resolution.
const ActQuantImpl& resolve_act_quant();
const GeluImpl& resolve_gelu();
const FpMicroImpl& resolve_fp_micro();

// The always-present scalar scale-accumulate, for callers that must
// bypass a resolved SIMD impl at run time (stats instrumentation; rows
// whose full_bits exceed the resolved impl's max_full_bits).
const PanelAccImpl& portable_panel_acc();

// The always-present scalar act-quant loop: the reference every tier is
// tested against, and what the materialized quantize_activations_int runs
// (it resolves nothing, so reference paths never depend on VSQ_ISA).
const ActQuantImpl& portable_act_quant();

// Process-wide count of dispatch resolutions (relaxed atomic). Serving
// tests assert steady-state traffic leaves this flat: every resolution
// happens at package-load time.
std::uint64_t dispatch_resolutions_total();

// Look up a built-in int-panel (act-quant, gelu) implementation by name,
// nullptr when absent (e.g. "avx512_vnni" on a CPU without it).
// Introspection for the registry tests and the kernel benchmarks, which
// pin a specific kernel instead of riding the preference list (or the
// tier cap); resolution paths never use this.
const IntPanelImpl* find_int_panel_impl(const char* name);
const ActQuantImpl* find_act_quant_impl(const char* name);
const GeluImpl* find_gelu_impl(const char* name);

}  // namespace vsq::kernels
