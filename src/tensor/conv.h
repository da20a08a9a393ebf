// Convolution kernels (forward and backward) used by the autograd layer.
//
// Layout is NCHW. Standard convolutions run on the one GEMM (tensor/ops.h)
// over groups of samples: a group's images unfold (im2col) side by side into
// one bounded scratch block, so one GEMM covers group * OH*OW columns, and
// groups run in parallel. The group size comes from a fixed byte budget and
// the layer shape (conv_group_size), never from the thread count.
//   forward      W (Cout, C*KH*KW) * cols, scattered into NCHW plus bias
//   grad-input   W^T * dOut per group (transpose flag), col2im per sample
//   grad-weight  dOut_i * cols_i^T per sample (transpose flag), samples in
//                parallel, into one block per chunk of samples
//                (conv_weight_chunk), added to the gradient in sample
//                order, parallel over weight elements
// Every output element is one GEMM sum in k order or a sample-ordered sum
// of them, so results are bitwise identical for any thread count. The
// depthwise variant (MobileNet / EfficientNet blocks) uses direct loops.
#pragma once

#include "tensor/tensor.h"

namespace bd {

struct Conv2dSpec {
  std::int64_t stride = 1;
  std::int64_t padding = 0;
};

/// Output spatial size for one dimension.
std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t padding);

/// The one shape rule of a convolution: (N,Cout,OH,OW) for an input
/// (N,C,H,W), a weight (Cout,C,KH,KW) — (C,1,KH,KW) when `depthwise` — and
/// an optional (Cout) bias. The forward kernels size their outputs with it
/// and the autograd builders infer their node shapes with it, so both throw
/// the same std::invalid_argument on malformed shapes.
Shape conv2d_shape(const Shape& input, const Shape& weight, const Shape* bias,
                   const Conv2dSpec& spec, bool depthwise);

/// Samples per group when each needs `sample_floats` floats of scratch: as
/// many as fit a fixed 64 KiB budget, at least one. conv2d_forward and the
/// grad-input pass use sample_floats = (C*KH*KW + Cout) * OH*OW.
std::int64_t conv_group_size(std::int64_t sample_floats);

/// Samples per grad-weight chunk for a weight of `weight_floats` floats:
/// conv_group_size(weight_floats), but at least 8, because the chunk's
/// per-sample products are what runs in parallel.
std::int64_t conv_weight_chunk(std::int64_t weight_floats);

/// input (N,Cin,H,W) * weight (Cout,Cin,KH,KW) + bias (Cout, optional
/// undefined) -> (N,Cout,OH,OW).
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec);

struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;  // undefined unless has_bias
};

/// The gradients of conv2d_forward. `grad_input` is computed only when
/// `need_input`, `grad_weight` only when `need_weight` and `grad_bias` only
/// when `has_bias`; a skipped field stays undefined, and a computed one has
/// the bits the full call gives it.
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            bool has_bias, const Tensor& grad_output,
                            const Conv2dSpec& spec, bool need_input = true,
                            bool need_weight = true);

/// Depthwise conv: input (N,C,H,W) * weight (C,1,KH,KW) + bias (C).
Tensor depthwise_conv2d_forward(const Tensor& input, const Tensor& weight,
                                const Tensor& bias, const Conv2dSpec& spec);

Conv2dGrads depthwise_conv2d_backward(const Tensor& input,
                                      const Tensor& weight, bool has_bias,
                                      const Tensor& grad_output,
                                      const Conv2dSpec& spec);

}  // namespace bd
