// Integer-domain operand representation for the bit-accurate hardware path
// (Sec. 5). Elements are stored as int16 (covers 3..10-bit values); scale
// metadata is either coarse floating-point (the baseline accelerator) or
// two-level: M-bit integer per-vector scales + floating-point coarse scale
// (the VS-Quant accelerator's buffer layout: each vector row carries its
// integer scale).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "quant/fake_quant.h"

namespace vsq {

struct QuantizedMatrix {
  std::int64_t rows = 0;
  QuantFormat fmt{8, true};
  VectorLayout layout;
  std::vector<std::int16_t> q;  // rows * cols integer elements

  // Scale metadata. Exactly one representation is active:
  //  - two_level.has_value(): VS-Quant operand (integer sq + fp gamma)
  //  - otherwise: coarse fp scales (per-row if coarse_scales.size()==rows,
  //    per-tensor if size()==1)
  std::optional<TwoLevelScales> two_level;
  std::vector<float> coarse_scales;

  std::int64_t cols() const { return layout.cols; }
  std::int64_t vectors_per_row() const { return layout.vectors_per_row(); }
  bool is_per_vector() const { return two_level.has_value(); }

  // Integer per-vector scale (1 when the operand has no per-vector scales,
  // i.e. the coarse baseline: the scale multiplier is bypassed).
  std::uint32_t int_scale(std::int64_t r, std::int64_t v) const {
    if (!two_level) return 1;
    return two_level->sq[static_cast<std::size_t>(r * vectors_per_row() + v)];
  }
  // Floating-point factor applied after integer accumulation (gamma for
  // two-level operands, the coarse scale otherwise).
  float outer_scale(std::int64_t r) const {
    if (two_level) return two_level->gamma_of_row(r);
    return coarse_scales.size() == 1 ? coarse_scales[0]
                                     : coarse_scales[static_cast<std::size_t>(r)];
  }
  std::int16_t at(std::int64_t r, std::int64_t c) const {
    return q[static_cast<std::size_t>(r * cols() + c)];
  }
};

// Build the integer operand for statically quantized weights.
// spec.granularity: kPerRow (baseline per-channel) or kPerVector with
// kTwoLevelInt scales. Single-level fp32/fp16 per-vector scales are
// rejected: the hardware stores only integer per-vector scales.
QuantizedMatrix quantize_weights_int(const Tensor& w2d, const QuantSpec& spec);

// Build the integer operand for activations at inference time, mirroring
// the PPU: per-tensor static amax for the coarse baseline, or dynamic
// per-vector sq with the calibrated gamma for two-level VS-Quant.
//
// The two-level pass (amax -> sq -> integer elements, Eq. 7g-7h) is the
// act-quant primitive, one of the kernel registry's four primitive kinds
// (kernels/registry.h: int-panel, panel-acc, act-quant, fp-micro). This
// materialized form always runs its portable reference loop. The serving
// paths — packaged GEMM layers and int_conv's streamed patch rows — quantize
// each row with the SIMD tier their weight panels bound at load
// (detail::IntWeightPanels::quantize_row); every tier yields the same
// codes and scales, so the two agree bit for bit.
QuantizedMatrix quantize_activations_int(const Tensor& x2d, const QuantSpec& spec,
                                         float static_amax, float gamma);

}  // namespace vsq
