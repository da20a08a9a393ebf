// Convolution kernels (forward and backward) used by the autograd layer.
//
// Layout is NCHW. Standard convolutions are implicit GEMMs on gemm_packed
// (tensor/ops.h): no patch matrix is built. Each sample's image is copied
// into a zero-bordered form split by (y mod stride, x mod stride) into
// phase planes of Hl x Wl (at stride 1, the padded image), and B's patch
// row (c, ky, kx) is read through an offset table at that tap's place in
// it. The columns are the positions of an OH x Wl grid, so each column
// strip is one vector load in place at any stride, and the Wl - OW columns
// past each output row are dropped when stored.
//   forward      W (Cout, C*KH*KW) * patches_i per sample, into NCHW plus
//                bias; samples in parallel
//   grad-input   per sample, one accumulating GEMM per tap (ky, kx), taps
//                in order: W(:, :, ky, kx)^T * dOut_i added into the split
//                input gradient at the tap's offset; samples in parallel
//   grad-weight  dOut_i * patches_i^T added straight into the gradient for
//                samples in order; strips of weight columns in parallel
// Every output element is one GEMM sum in k order or an ordered sum of
// them, formed on one thread, so results are bitwise identical for any
// thread count and kernel. The depthwise variant (MobileNet / EfficientNet
// blocks) uses direct loops.
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

/// The gradients of depthwise_conv2d_forward, computed and skipped by the
/// flags as conv2d_backward's are.
Conv2dGrads depthwise_conv2d_backward(const Tensor& input,
                                      const Tensor& weight, bool has_bias,
                                      const Tensor& grad_output,
                                      const Conv2dSpec& spec,
                                      bool need_input = true,
                                      bool need_weight = true);

}  // namespace bd
