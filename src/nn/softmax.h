// Numerically stable softmax over the last axis, with backward. Used by
// attention and the cross-entropy losses.
#pragma once

#include "tensor/tensor.h"

namespace vsq {

// Softmax along the last axis, any rank.
Tensor softmax_last_axis(const Tensor& x);

// Softmax of one row of `d` values, in place: the arithmetic
// softmax_last_axis applies to each row. A row whose entries are all -inf
// (fully masked) becomes all zeros rather than NaN.
void softmax_row_inplace(float* row, std::int64_t d);

// Given p = softmax(x) and dL/dp, returns dL/dx:
//   dx_i = p_i * (dp_i - sum_j dp_j p_j)   (per row of the last axis)
Tensor softmax_backward_last_axis(const Tensor& p, const Tensor& grad_p);

}  // namespace vsq
