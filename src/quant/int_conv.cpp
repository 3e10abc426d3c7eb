#include "quant/int_conv.h"

#include <stdexcept>

#include "quant/int_kernel.h"
#include "tensor/ops.h"

namespace vsq {
namespace {

void check_conv_operands(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                         const VectorLayout& act_layout) {
  if (x.shape().rank() != 4 || x.shape()[1] != g.in_h || x.shape()[2] != g.in_w ||
      x.shape()[3] != g.in_c) {
    throw std::invalid_argument("int_conv: input shape does not match geometry");
  }
  if (wgt.cols() != g.patch_len()) {
    throw std::invalid_argument("int_conv: weight reduction dim != patch length");
  }
  if (act_layout.vector_size != wgt.layout.vector_size ||
      act_layout.block_len() != wgt.layout.block_len()) {
    throw std::invalid_argument("int_conv: operand vector layouts differ");
  }
  // Vectors must not straddle kernel positions (Conv2d::set_quant's
  // channel_block = in_c rule): each C-length channel block of the
  // unrolled patch row carries its own vectors.
  if (act_layout.block_len() != g.in_c) {
    throw std::invalid_argument("int_conv: layout channel block must equal in_c");
  }
}

void add_bias_rows(float* dst, std::int64_t rows, std::int64_t k_out,
                   const std::vector<float>& bias) {
  if (bias.empty()) return;
  if (static_cast<std::int64_t>(bias.size()) != k_out) {
    throw std::invalid_argument("int_conv: bias size mismatch");
  }
  add_row_bias(dst, rows, k_out, bias.data());
}

// Shared body of int_conv_reference and the reference fallbacks inside
// detail::int_conv_packed (which thread a prepacked set through to the
// materialized int_gemm).
Tensor conv_reference_packed(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                             const QuantSpec& act_spec, float act_amax, float act_gamma,
                             const std::vector<float>& bias, int scale_product_bits,
                             IntGemmStats* stats, const detail::IntWeightPanels* prepacked) {
  const VectorLayout act_layout = act_spec.layout(g.patch_len());
  check_conv_operands(x, g, wgt, act_layout);
  const std::int64_t n = x.shape()[0], oh = g.out_h(), ow = g.out_w();
  const Tensor cols = im2col(x, g);
  const QuantizedMatrix acts = quantize_activations_int(cols, act_spec, act_amax, act_gamma);
  Tensor y = detail::int_gemm_packed(acts, wgt, scale_product_bits, stats, prepacked);
  add_bias_rows(y.data(), n * oh * ow, wgt.rows, bias);
  return y.reshape(Shape{n, oh, ow, wgt.rows});
}

}  // namespace

Tensor int_conv_reference(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                          const QuantSpec& act_spec, float act_amax, float act_gamma,
                          const std::vector<float>& bias, int scale_product_bits,
                          IntGemmStats* stats) {
  return conv_reference_packed(x, g, wgt, act_spec, act_amax, act_gamma, bias,
                               scale_product_bits, stats, nullptr);
}

Tensor int_conv(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                const QuantSpec& act_spec, float act_amax, float act_gamma,
                const std::vector<float>& bias, int scale_product_bits, IntGemmStats* stats) {
  return detail::int_conv_packed(x, g, wgt, act_spec, act_amax, act_gamma, bias,
                                 scale_product_bits, stats, nullptr);
}

namespace detail {

Tensor int_conv_packed(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                       const QuantSpec& act_spec, float act_amax, float act_gamma,
                       const std::vector<float>& bias, int scale_product_bits,
                       IntGemmStats* stats, const IntWeightPanels* prepacked) {
  if (!act_spec.enabled) throw std::invalid_argument("int_conv: activation spec disabled");
  const std::int64_t plen = g.patch_len();
  const VectorLayout act_layout = act_spec.layout(plen);
  check_conv_operands(x, g, wgt, act_layout);
  if (act_spec.fmt.bits > 10) {
    throw std::invalid_argument("int_conv: bits > 10 does not fit int16");
  }

  if (!bias.empty() && static_cast<std::int64_t>(bias.size()) != wgt.rows) {
    throw std::invalid_argument("int_conv: bias size mismatch");
  }

  const bool per_vector = act_spec.granularity == Granularity::kPerVector;
  if (per_vector && act_spec.scale_dtype != ScaleDtype::kTwoLevelInt) {
    throw std::invalid_argument("int_conv: hardware path requires two-level integer scales");
  }
  // What remains off the streamed path: a dynamic per-tensor amax (a
  // whole-matrix statistic, not computable from one patch row; exported
  // packages calibrate coarse activations statically) and operands too
  // wide for int32 dot products. Checked before packing, so the reference
  // (which packs inside int_gemm) never pays for a discarded pack here.
  if (!row_local_quant(act_spec, wgt, act_layout)) {
    return conv_reference_packed(x, g, wgt, act_spec, act_amax, act_gamma, bias,
                                 scale_product_bits, stats, prepacked);
  }

  const std::int64_t n = x.shape()[0], oh = g.out_h(), ow = g.out_w();
  const std::int64_t rows = n * oh * ow, k_out = wgt.rows;
  Tensor out(Shape{n, oh, ow, k_out});
  if (rows == 0 || k_out == 0) return out;

  // The virtual im2col matrix, one patch row at a time: the row loop
  // quantizes each patch row as it is generated, so neither the fp cols
  // matrix nor its quantized image ever exists at full size.
  struct PatchRows {
    const float* src;
    const ConvGeom* g;
  } const patches{x.data(), &g};
  const FpRowFn patch_row = [](const void* ctx, std::int64_t r, float* scratch) {
    const auto* p = static_cast<const PatchRows*>(ctx);
    im2col_rows(p->src, *p->g, r, r + 1, scratch, p->g->patch_len());
    return static_cast<const float*>(scratch);
  };
  run_quantized_rows(wgt, act_layout, act_spec, act_amax, act_gamma, rows, patch_row, &patches,
                     bias, scale_product_bits, stats, prepacked, out.data());
  return out;
}

}  // namespace detail

}  // namespace vsq
