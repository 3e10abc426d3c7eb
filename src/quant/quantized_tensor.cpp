#include "quant/quantized_tensor.h"

#include <stdexcept>

#include "kernels/registry.h"

namespace vsq {

QuantizedMatrix quantize_weights_int(const Tensor& w2d, const QuantSpec& spec) {
  if (!spec.enabled) throw std::invalid_argument("quantize_weights_int: spec disabled");
  QuantizedMatrix out;
  out.rows = w2d.shape()[0];
  out.fmt = spec.fmt;
  out.layout = spec.layout(w2d.shape()[1]);

  if (spec.granularity == Granularity::kPerVector) {
    if (spec.scale_dtype != ScaleDtype::kTwoLevelInt) {
      throw std::invalid_argument(
          "quantize_weights_int: hardware path requires two-level integer scales");
    }
    const ScaleSet fp = compute_scales(w2d, Granularity::kPerVector, out.layout, spec.fmt);
    out.two_level = two_level_from_scales(fp, spec.scale_fmt, CoarseAxis::kPerRow);
    out.q = quantize_to_int(w2d, out.two_level->to_scale_set(), spec.fmt);
  } else {
    const ScaleSet s = compute_scales(w2d, spec.granularity, out.layout, spec.fmt);
    out.coarse_scales = s.scales;
    out.q = quantize_to_int(w2d, s, spec.fmt);
  }
  return out;
}

QuantizedMatrix quantize_activations_int(const Tensor& x2d, const QuantSpec& spec,
                                         float static_amax, float gamma) {
  if (!spec.enabled) throw std::invalid_argument("quantize_activations_int: spec disabled");
  QuantizedMatrix out;
  out.rows = x2d.shape()[0];
  out.fmt = spec.fmt;
  out.layout = spec.layout(x2d.shape()[1]);

  if (spec.fmt.bits > 10) {
    throw std::invalid_argument("quantize_activations_int: bits > 10 does not fit int16");
  }
  if (spec.granularity == Granularity::kPerVector) {
    if (spec.scale_dtype != ScaleDtype::kTwoLevelInt) {
      throw std::invalid_argument(
          "quantize_activations_int: hardware path requires two-level integer scales");
    }
    // Dynamic per-vector: runtime vector max -> sq = round(s/gamma) (Eq. 7g),
    // exactly the PPU's calibrate-and-quantize pipeline. Fused single pass
    // per vector (amax -> sq -> integer elements): arithmetic is
    // element-for-element identical to amax_per_vector + to_scale_set +
    // quantize_to_int, without the per-element scale lookups and the
    // intermediate scale-set allocations.
    TwoLevelScales tl;
    tl.scale_fmt = spec.scale_fmt;
    tl.coarse_axis = CoarseAxis::kPerTensor;
    tl.layout = out.layout;
    tl.rows = out.rows;
    tl.gamma = {gamma};
    const std::int64_t rows = out.rows, cols = out.layout.cols;
    const std::int64_t vpr = out.layout.vectors_per_row();
    tl.sq.assign(static_cast<std::size_t>(rows * vpr), 0);
    out.q.assign(static_cast<std::size_t>(rows * cols), 0);
    std::vector<kernels::VecRange> vr(static_cast<std::size_t>(vpr));
    for (std::int64_t v = 0; v < vpr; ++v) {
      const auto [c0, c1] = out.layout.col_range(v);
      vr[static_cast<std::size_t>(v)] = {static_cast<std::int32_t>(c0),
                                         static_cast<std::int32_t>(c1 - c0)};
    }
    const kernels::ActQuantParams params{{spec.fmt.bits, spec.fmt.is_signed},
                                         {spec.scale_fmt.bits, spec.scale_fmt.is_signed},
                                         gamma};
    const kernels::ActQuantFn quantize_row = kernels::portable_act_quant().fn;
    const float* src = x2d.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      quantize_row(src + r * cols, vr.data(), vpr, params, out.q.data() + r * cols,
                   tl.sq.data() + static_cast<std::size_t>(r * vpr));
    }
    out.two_level = std::move(tl);
  } else {
    const float amax = spec.dynamic ? amax_per_tensor(x2d) : static_amax;
    ScaleSet s;
    s.granularity = Granularity::kPerTensor;
    s.layout = out.layout;
    s.rows = out.rows;
    s.scales = {scale_from_amax(amax, spec.fmt)};
    out.coarse_scales = s.scales;
    out.q = quantize_to_int(x2d, s, spec.fmt);
  }
  return out;
}

}  // namespace vsq
