// Differentiable operations over bd::ag::Var.
//
// Each op is a graph builder: it validates operands and infers the output
// shape at call time, through the same src/tensor shape rule its kernel
// calls (conv2d_shape, pool2d_shape, matmul_shape, reduce_shape, ...), so
// a malformed op throws the kernel's message at build time. Kernel
// execution is deferred to the value()/backward() boundaries
// (autograd/schedule.h). Elementwise binaries broadcast (NumPy rules);
// their backward reduces gradients back to the operand shapes, which is
// what lets BatchNorm and squeeze-excite be expressed compositionally.
#pragma once

#include <vector>

#include "autograd/variable.h"
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

// Classification losses. `logits` is (N, classes).
Var log_softmax(const Var& logits);
Var nll_loss(const Var& log_probs, const std::vector<std::int64_t>& labels);
Var cross_entropy(const Var& logits, const std::vector<std::int64_t>& labels);
/// Mean squared error between same-shape tensors.
Var mse_loss(const Var& a, const Var& b);

}  // namespace bd::ag
