// Integer quantization format: bitwidth + signedness (paper Sec. 3).
//
// Signed N-bit symmetric scale-only quantization maps to
//   [-(2^(N-1) - 1), 2^(N-1) - 1]        (zero point fixed at 0, Eq. 2)
// Unsigned N-bit (post-ReLU activations, "U" in the paper's tables) maps to
//   [0, 2^N - 1].
// Note: Sec. 3 of the paper prints the unsigned range as [0, 2^(N-1)-1],
// which would make the "U" annotation meaningless; we use the standard
// full unsigned range, with scale s = amax / qmax in both cases (Eq. 1).
#pragma once

#include <cstdint>
#include <string>

namespace vsq {

struct QuantFormat {
  int bits = 8;
  bool is_signed = true;

  std::int64_t qmin() const { return is_signed ? -(max_level()) : 0; }
  std::int64_t qmax() const { return max_level(); }
  // Number of positive levels: 2^(N-1)-1 signed, 2^N-1 unsigned.
  std::int64_t max_level() const {
    return (std::int64_t{1} << (is_signed ? bits - 1 : bits)) - 1;
  }

  bool operator==(const QuantFormat&) const = default;
  std::string str() const;  // e.g. "s8", "u4"
};

// Eq. 1: scale factor for a given absolute-maximum.
// amax <= 0 returns 0; callers treat a zero scale as "all values quantize
// to zero" (see quantize_value).
float scale_from_amax(float amax, const QuantFormat& fmt);

// Eq. 2: round-to-nearest + clip. The clip happens in float before the
// rounding, so huge values and +-inf saturate to qmax / qmin; NaN and any
// value under a scale <= 0 yield 0 (kernels::quantize_code, the canonical
// definition every activation-quantizer tier reproduces).
std::int64_t quantize_value(float x, float scale, const QuantFormat& fmt);

// Eq. 3: simulated-quantized value (quantize then rescale).
float fake_quantize_value(float x, float scale, const QuantFormat& fmt);

}  // namespace vsq
