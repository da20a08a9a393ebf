// Pooling kernels (forward and backward) used by the autograd layer.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace bd {

struct Pool2dSpec {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
  std::int64_t padding = 0;
};

struct MaxPoolResult {
  Tensor output;
  /// Flat input index (within the whole input tensor) of each output's max;
  /// -1 for windows that were entirely padding.
  std::vector<std::int64_t> argmax;
};

/// The one shape rule of max pooling: (N,C,OH,OW) for an NCHW input.
/// The kernel and the autograd builder both call it, so both throw the
/// same std::invalid_argument on a malformed input.
Shape pool2d_shape(const Shape& input, const Pool2dSpec& spec);

/// (N,C,1,1) for an NCHW input: global_avgpool's shape rule.
Shape global_avgpool_shape(const Shape& input);

/// Leaves `argmax` empty unless `keep_argmax`: only a backward reads it.
MaxPoolResult maxpool2d_forward(const Tensor& input, const Pool2dSpec& spec,
                                bool keep_argmax = true);

Tensor maxpool2d_backward(const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_output);

/// (N,C,H,W) -> (N,C,1,1) spatial mean.
Tensor global_avgpool_forward(const Tensor& input);

Tensor global_avgpool_backward(const Shape& input_shape,
                               const Tensor& grad_output);

}  // namespace bd
