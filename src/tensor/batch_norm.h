// BatchNorm kernels (forward and backward) used by the autograd layer.
//
// One op normalizes an NCHW input per channel c and applies ANP's hooks:
//   out = ((x - m_c) / std_c * s_c + b_c) * mask_c,  std_c = sqrt(v_c + eps)
// where s_c = gamma_c * (delta_c + 1) when the perturbation delta is given,
// else gamma_c, and the mask is optional. Training normalizes with the batch
// statistics m_c = sum(x) * (1/D) and v_c = sum((x - m_c)^2) * (1/D) over
// the D = N*H*W elements of the channel; eval with the running ones.
//
// Each element takes the float-op sequence of the same computation written
// as a graph of broadcast ops (reduce_sum, mul_scalar, sub, mul, add_scalar,
// sqrt, div, add), which tests keep as the reference: every sum is one
// serial chain over (n, hw) in order, started at +0 (a gradient's sum over
// a single element is that element), and no multiply and add are fused.
// Channels are independent chains, so both kernels split channels across
// threads and give the same bits at any thread count.
#pragma once

#include "tensor/tensor.h"

namespace bd {

struct BatchNormSpec {
  float eps = 1e-5f;
  bool training = true;
  /// (C) each; read in eval mode only.
  Tensor running_mean, running_var;
};

/// The one shape rule of batch_norm: the (N,C,H,W) input's shape, given
/// (C)-shaped gamma and beta and, where given, delta and mask. The kernel
/// sizes its output with it; throws std::invalid_argument otherwise.
Shape batch_norm_shape(const Shape& input, const Shape& gamma,
                       const Shape* delta, const Shape& beta,
                       const Shape* mask);

/// The per-channel values the forward used, (C) each: the mean and variance
/// it normalized with (the batch's in training, copies of the running ones
/// in eval), std = sqrt(var + eps), the scale s and, with delta, delta + 1.
/// The backward reads them rather than the operands, so a perturbation
/// changed after the forward does not reach its gradient.
struct BatchNormStats {
  Tensor mean, var, std, scale, delta_plus_one;
};

struct BatchNormResult {
  Tensor output;
  BatchNormStats stats;
};

/// `delta` and `mask` may be undefined.
BatchNormResult batch_norm_forward(const Tensor& input, const Tensor& gamma,
                                   const Tensor& delta, const Tensor& beta,
                                   const Tensor& mask,
                                   const BatchNormSpec& spec);

/// Which gradients batch_norm_backward computes; a skipped one stays
/// undefined, and a computed one has the bits the full call gives it.
struct BatchNormNeeds {
  bool input = true, gamma = true, delta = true, beta = true, mask = true;
  /// In training, x receives two gradients, the centered path's and then
  /// the mean path's. Summed in the kernel they are one addend, which has
  /// the bits of adding them in turn only while x holds no gradient yet.
  /// With split_input they stay apart, for the caller to add in that order.
  bool split_input = false;
};

struct BatchNormGrads {
  /// (N,C,H,W); with split_input, grad_input is the centered path's alone
  /// and grad_input_mean the mean path's.
  Tensor grad_input, grad_input_mean;
  Tensor grad_gamma, grad_delta, grad_beta, grad_mask;  // (C)
};

/// The gradients of batch_norm_forward, in the reference graph's arithmetic:
///   g     = G * mask                        (G itself without a mask)
///   mask  : chain of G * (xhat * s + b),    xhat = (x - m) / std
///   beta  : chain of g
///   gamma : chain of g * xhat, times (delta + 1) with delta
///   delta : the same chain times gamma
///   x, eval:  (g * s) / std
///   x, train: c = x - m, t = chain of -((g * s * c) / (std * std)),
///     a = (((t / (std * 2)) * (1/D)) + 0) * c,
///     centered path gc = (((g * s) / std) + a) + a,
///     mean path ((chain of -gc) * (1/D)) + 0.
/// `stats` is the forward's; `gamma`, `beta` and `mask` are read as they
/// are now, which is as the forward saw them wherever a backward follows.
BatchNormGrads batch_norm_backward(const Tensor& grad_output,
                                   const Tensor& input, const Tensor& gamma,
                                   const Tensor& beta, const Tensor& mask,
                                   const BatchNormSpec& spec,
                                   const BatchNormStats& stats,
                                   const BatchNormNeeds& need);

}  // namespace bd
