// Integer convolution through the per-vector datapath: the conv runs as
// the same vector-MAC arithmetic as int_gemm, but the quantized activation
// operand is synthesized patch-row by patch-row from the NHWC input — the
// PPU pass (the act-quant kernel the weight panels bound) and the
// packed-weight row loop (detail::run_quantized_rows, quant/int_kernel.h)
// stream over rows of the virtual im2col matrix, so neither the fp cols
// matrix nor its quantized image ever exists at full size. Outputs are bit-identical to materializing im2col(x), quantizing
// it with quantize_activations_int and running int_gemm (the reference
// below), and each output row depends only on its own image, so batched
// execution is bit-identical to single-sample execution.
//
// Layout rule (Conv2d::set_quant): per-vector scales must not straddle
// kernel positions, i.e. the operand layouts' channel block must equal the
// conv's input channel count.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/int_gemm.h"
#include "quant/quantized_tensor.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace vsq {

// x: [N, H, W, C] NHWC matching g. wgt: quantized [K, KH*KW*C] weights
// (quantize_weights_int with channel_block = C). act_spec / act_amax /
// act_gamma: the layer's activation quantization exactly as packaged by
// quant/export. bias: K fp values added after de-scaling, or empty.
// Returns [N, OH, OW, K]. Falls back to the materialized reference when
// the operand widths exceed int32-exact accumulation or the activation
// quantization is not row-local (dynamic per-tensor amax). Packs the
// weight panels per call; deployments resolve an IntLayerPrimitive once
// instead (quant/export.h) — outputs are bit-identical either way.
Tensor int_conv(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                const QuantSpec& act_spec, float act_amax, float act_gamma,
                const std::vector<float>& bias, int scale_product_bits = -1,
                IntGemmStats* stats = nullptr);

// Reference oracle: materialized im2col -> quantize_activations_int ->
// int_gemm -> bias. Also the memory baseline the conv benches compare
// against.
Tensor int_conv_reference(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                          const QuantSpec& act_spec, float act_amax, float act_gamma,
                          const std::vector<float>& bias, int scale_product_bits = -1,
                          IntGemmStats* stats = nullptr);

namespace detail {

// Prepacked entry point behind int_conv, for resolved primitives
// (IntLayerPrimitive): a weight-panel set built from `wgt` with the
// patch-row activation layout skips the per-call pack (both on the tiled
// path and inside the materialized reference's int_gemm). Bit-identical
// either way; a mismatched set throws std::invalid_argument.
Tensor int_conv_packed(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                       const QuantSpec& act_spec, float act_amax, float act_gamma,
                       const std::vector<float>& bias, int scale_product_bits,
                       IntGemmStats* stats, const IntWeightPanels* prepacked);

}  // namespace detail

}  // namespace vsq
