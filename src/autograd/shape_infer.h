// Build-time shape and stride inference for the autograd graph IR.
//
// Every ops.h builder infers its output shape from its input shapes alone,
// so graphs can be constructed, validated and memory-planned without
// running a single kernel. Broadcasting has one rule, bd::broadcast_shape in
// tensor/ops.h, which the elementwise kernels call too, so an inferred
// shape is the shape the kernel returns. Reduction inference mirrors
// reduce_sum's axis handling: negative axes wrap, reduced axes drop (or
// become 1 with keepdim).
//
// All functions throw std::invalid_argument on malformed inputs — the same
// type the eager kernels threw, so op-call-site error behaviour is
// unchanged by the lazy refactor.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/conv.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace bd::ag {

/// Axes normalized to [0, rank): negative axes wrap, out-of-range axes
/// throw; duplicates pass through (the reduce kernel collapses them).
std::vector<std::int64_t> normalize_axes(
    const std::vector<std::int64_t>& axes, std::size_t rank);

/// Output shape of reduce_sum/reduce_mean over `axes`.
Shape reduce_result(const Shape& in, const std::vector<std::int64_t>& axes,
                    bool keepdim);

/// The keepdim-shaped view of a reduce result: reduced axes become 1. This
/// is the shape the reduction's gradient is viewed as before broadcasting
/// back over the input.
Shape reduce_kept_shape(const Shape& in,
                        const std::vector<std::int64_t>& axes);

/// (m,k) x (k,n) -> (m,n); rank and inner-dimension checks.
Shape matmul_result(const Shape& a, const Shape& b);

/// Conv2d output shape (N,Cout,OH,OW); validates ranks, channel agreement
/// and the optional bias shape. `has_bias` selects whether `bias` is
/// checked. `depthwise` switches to the (C,1,KH,KW) weight contract.
Shape conv2d_result(const Shape& input, const Shape& weight,
                    const Shape* bias, const Conv2dSpec& spec,
                    bool depthwise);

/// Pool output shape (N,C,OH,OW) for max/avg pooling.
Shape pool2d_result(const Shape& input, const Pool2dSpec& spec);

/// Validates a (rows, cols) shape for the row-wise softmax/NLL ops.
void require_rank2(const Shape& s, const char* op);

}  // namespace bd::ag
