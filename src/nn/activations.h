// Elementwise activation layers: ReLU and GELU (tanh approximation).
#pragma once

#include "nn/layer.h"

namespace vsq {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string kind() const override { return "relu"; }

 private:
  Tensor mask_;  // 1 where x > 0
};

class GELU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string kind() const override { return "gelu"; }

 private:
  Tensor x_;
};

// Functional forms (used inside attention and by tests). gelu_value is
// the kernel layer's scalar definition (kernels::gelu_element), which
// every tier of the runner's gelu primitive reproduces bit for bit.
float gelu_value(float x);
float gelu_grad_value(float x);

}  // namespace vsq
