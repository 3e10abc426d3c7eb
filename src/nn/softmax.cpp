#include "nn/softmax.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vsq {

void softmax_row_inplace(float* row, std::int64_t d) {
  float m = row[0];
  for (std::int64_t c = 1; c < d; ++c) m = std::max(m, row[c]);
  // A fully-masked row (every score -inf, e.g. a padded query position
  // attending over nothing) would compute exp(-inf - -inf) = NaN and
  // 0/0 below. Define its softmax as all zeros: pad positions carry no
  // probability mass instead of poisoning downstream GEMMs with NaN.
  if (m == -std::numeric_limits<float>::infinity()) {
    for (std::int64_t c = 0; c < d; ++c) row[c] = 0.0f;
    return;
  }
  float sum = 0.0f;
  for (std::int64_t c = 0; c < d; ++c) {
    row[c] = std::exp(row[c] - m);
    sum += row[c];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t c = 0; c < d; ++c) row[c] *= inv;
}

Tensor softmax_last_axis(const Tensor& x) {
  const Shape& s = x.shape();
  const std::int64_t d = s[s.rank() - 1];
  const std::int64_t rows = x.numel() / d;
  Tensor y = x.clone();
  for (std::int64_t r = 0; r < rows; ++r) softmax_row_inplace(y.data() + r * d, d);
  return y;
}

Tensor softmax_backward_last_axis(const Tensor& p, const Tensor& grad_p) {
  if (p.shape() != grad_p.shape()) {
    throw std::invalid_argument("softmax_backward: shape mismatch");
  }
  const Shape& s = p.shape();
  const std::int64_t d = s[s.rank() - 1];
  const std::int64_t rows = p.numel() / d;
  Tensor gx(p.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* pr = p.data() + r * d;
    const float* gr = grad_p.data() + r * d;
    float dot = 0.0f;
    for (std::int64_t c = 0; c < d; ++c) dot += gr[c] * pr[c];
    float* gxr = gx.data() + r * d;
    for (std::int64_t c = 0; c < d; ++c) gxr[c] = pr[c] * (gr[c] - dot);
  }
  return gx;
}

}  // namespace vsq
