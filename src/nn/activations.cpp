#include "nn/activations.h"

#include <stdexcept>

#include "kernels/registry.h"

namespace vsq {

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y(x.shape());
  const std::int64_t n = x.numel();
  if (train) mask_ = Tensor(x.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const bool pos = x[i] > 0.0f;
    y[i] = pos ? x[i] : 0.0f;
    if (train) mask_[i] = pos ? 1.0f : 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (mask_.empty()) throw std::logic_error("ReLU::backward without forward(train=true)");
  Tensor g(grad_out.shape());
  const std::int64_t n = g.numel();
  for (std::int64_t i = 0; i < n; ++i) g[i] = grad_out[i] * mask_[i];
  return g;
}

float gelu_value(float x) { return kernels::gelu_element(x); }

float gelu_grad_value(float x) {
  using kernels::kGeluCubic;
  using kernels::kGeluSqrt2OverPi;
  const float u = kGeluSqrt2OverPi * (x + kGeluCubic * x * x * x);
  const float t = kernels::tanh_fdlibm(u);
  const float du = kGeluSqrt2OverPi * (1.0f + 3.0f * kGeluCubic * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

Tensor GELU::forward(const Tensor& x, bool train) {
  Tensor y(x.shape());
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) y[i] = gelu_value(x[i]);
  if (train) x_ = x;
  return y;
}

Tensor GELU::backward(const Tensor& grad_out) {
  if (x_.empty()) throw std::logic_error("GELU::backward without forward(train=true)");
  Tensor g(grad_out.shape());
  const std::int64_t n = g.numel();
  for (std::int64_t i = 0; i < n; ++i) g[i] = grad_out[i] * gelu_grad_value(x_[i]);
  return g;
}

}  // namespace vsq
