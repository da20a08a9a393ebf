// Differentiable operations over bd::ag::Var.
//
// Each op builds a graph node and runs its forward kernel at once. The
// kernel sizes and validates its output with the op's src/tensor shape rule
// (conv2d_shape, pool2d_shape, matmul_shape, reduce_shape, ...), so a
// malformed op throws the kernel's message from the call. Elementwise
// binaries broadcast (NumPy rules); their backward reduces gradients back
// to the operand shapes, which is what lets squeeze-excite and NAD's
// attention maps be expressed compositionally. BatchNorm is one op.
#pragma once

#include <vector>

#include "autograd/variable.h"
#include "tensor/batch_norm.h"
#include "tensor/conv.h"
#include "tensor/pool.h"

namespace bd::ag {

// Elementwise binary (broadcasting).
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);

// Elementwise with scalars.
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);

// Elementwise unary.
Var neg(const Var& a);
Var sqrt(const Var& a);

// Activations.
Var relu(const Var& a);
Var sigmoid(const Var& a);
Var hardsigmoid(const Var& a);  // clamp(x+3, 0, 6) / 6
Var hardswish(const Var& a);    // x * hardsigmoid(x)

// Shape ops.
Var reshape(const Var& a, Shape shape);
/// (N,C,H,W) -> (N, C*H*W).
Var flatten2d(const Var& a);

// Reductions.
Var reduce_sum(const Var& a, const std::vector<std::int64_t>& axes,
               bool keepdim);
Var reduce_mean(const Var& a, const std::vector<std::int64_t>& axes,
                bool keepdim);
Var sum_all(const Var& a);   // -> scalar
Var mean_all(const Var& a);  // -> scalar

// Linear algebra.
Var matmul(const Var& a, const Var& b);

// Convolutions; bias may be an undefined Var for bias-free layers.
Var conv2d(const Var& input, const Var& weight, const Var& bias,
           const Conv2dSpec& spec);
Var depthwise_conv2d(const Var& input, const Var& weight, const Var& bias,
                     const Conv2dSpec& spec);

// Pooling.
Var maxpool2d(const Var& input, const Pool2dSpec& spec);
Var global_avgpool(const Var& input);

// BatchNorm over an (N,C,H,W) input with (C)-shaped gamma and beta; delta
// (ANP's perturbation, scale gamma * (delta + 1)) and mask (on the output)
// may be undefined Vars. See tensor/batch_norm.h. `stats`, when given,
// receives the per-channel mean and variance the op normalized with.
Var batch_norm(const Var& x, const Var& gamma, const Var& delta,
               const Var& beta, const Var& mask, const BatchNormSpec& spec,
               BatchNormStats* stats = nullptr);

// Classification losses. `logits` is (N, classes).
Var log_softmax(const Var& logits);
Var nll_loss(const Var& log_probs, const std::vector<std::int64_t>& labels);
Var cross_entropy(const Var& logits, const std::vector<std::int64_t>& labels);
/// Mean squared error between same-shape tensors.
Var mse_loss(const Var& a, const Var& b);

}  // namespace bd::ag
