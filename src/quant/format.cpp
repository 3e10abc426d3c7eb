#include "quant/format.h"

#include "kernels/registry.h"

namespace vsq {

std::string QuantFormat::str() const {
  return (is_signed ? "s" : "u") + std::to_string(bits);
}

float scale_from_amax(float amax, const QuantFormat& fmt) {
  if (amax <= 0.0f) return 0.0f;
  return amax / static_cast<float>(fmt.qmax());
}

std::int64_t quantize_value(float x, float scale, const QuantFormat& fmt) {
  // Round-half-to-even in the default rounding mode; the paper's
  // floor(x/s + 0.5) "round to nearest" differs only on exact .5 ties,
  // which calibrated scales essentially never produce.
  return kernels::quantize_code(x, scale, fmt.qmin(), fmt.qmax());
}

float fake_quantize_value(float x, float scale, const QuantFormat& fmt) {
  return static_cast<float>(quantize_value(x, scale, fmt)) * scale;
}

}  // namespace vsq
