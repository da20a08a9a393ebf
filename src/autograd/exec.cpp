#include "autograd/exec.h"

#include <array>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace bd::ag {

namespace {

const Tensor& in_value(const Node& n, std::size_t i) {
  return n.inputs[i]->value;
}

// Backward of a unary op in one pass: grad * d(t) elementwise, where `t` is
// the op's input or output value. Each element computes exactly
// `g * d(t)`, the product the separate derivative tensor and `mul` gave.
// Masks convert a bool rather than use `?:`, which keeps GCC from folding
// `g * 1` into `g` behind a branch, so most of these loops vectorize.
template <typename D>
Tensor fused_grad(const Node& n, const Tensor& t, D d) {
  return bd::zip(n.grad, t, [d](float g, float x) { return g * d(x); },
                 op_kind_name(n.kind));
}

/// The kernel probe site of each direction, `kernel.<op_kind_name>_fwd|_bwd`;
/// items are the node's output elements. Instruments register on a probe's
/// first use, so metrics list only kinds that ran, and so does the
/// `gemm.kernel` label that names the micro-kernel under conv and matmul
/// (bd_tensor does not link bd_obs). kNllLoss is the last OpKind.
obs::KernelStats& kernel_stats(OpKind kind, bool backward) {
  constexpr auto kKinds = static_cast<std::size_t>(OpKind::kNllLoss) + 1;
  static std::array<std::once_flag, 2 * kKinds> registered;
  static std::array<obs::KernelStats*, 2 * kKinds> stats;
  const std::size_t i = 2 * static_cast<std::size_t>(kind) + backward;
  std::call_once(registered[i], [&] {
    obs::registry().set_label("gemm.kernel", gemm_kernel_name());
    stats[i] = &obs::kernel_stats(std::string("kernel.") +
                                  op_kind_name(kind) +
                                  (backward ? "_bwd" : "_fwd"));
  });
  return *stats[i];
}

// The output of a forward kernel: a pure function of the input values
// and the node's attributes (kMaxPool2d also leaves its argmax on n).
Tensor forward_value(Node& n) {
  switch (n.kind) {
    case OpKind::kLeaf:
      break;
    case OpKind::kAdd:
      return bd::add(in_value(n, 0), in_value(n, 1));
    case OpKind::kSub:
      return bd::sub(in_value(n, 0), in_value(n, 1));
    case OpKind::kMul:
      return bd::mul(in_value(n, 0), in_value(n, 1));
    case OpKind::kDiv:
      return bd::div(in_value(n, 0), in_value(n, 1));
    case OpKind::kAddScalar:
      return bd::add_scalar(in_value(n, 0), n.scalar);
    case OpKind::kMulScalar:
      return bd::mul_scalar(in_value(n, 0), n.scalar);
    case OpKind::kSqrt:
      return bd::sqrt(in_value(n, 0));
    case OpKind::kRelu:
      return bd::relu(in_value(n, 0));
    case OpKind::kSigmoid:
      return bd::sigmoid(in_value(n, 0));
    case OpKind::kHardsigmoid:
      return bd::unary(in_value(n, 0), [](float x) {
        return std::min(1.0f, std::max(0.0f, (x + 3.0f) / 6.0f));
      });
    case OpKind::kHardswish:
      return bd::unary(in_value(n, 0), [](float x) {
        return x * std::min(1.0f, std::max(0.0f, (x + 3.0f) / 6.0f));
      });
    case OpKind::kReshape:
      return in_value(n, 0).reshape(n.reshape_to);
    case OpKind::kReduceSum:
      return bd::reduce_sum(in_value(n, 0), n.axes, n.keepdim);
    case OpKind::kSumAll:
      return Tensor::scalar(bd::sum_all(in_value(n, 0)));
    case OpKind::kMatmul:
      return bd::matmul(in_value(n, 0), in_value(n, 1));
    case OpKind::kConv2d:
      return conv2d_forward(in_value(n, 0), in_value(n, 1),
                            n.inputs.size() == 3 ? in_value(n, 2) : Tensor(),
                            n.conv);
    case OpKind::kDepthwiseConv2d:
      return depthwise_conv2d_forward(
          in_value(n, 0), in_value(n, 1),
          n.inputs.size() == 3 ? in_value(n, 2) : Tensor(), n.conv);
    case OpKind::kMaxPool2d: {
      MaxPoolResult res = maxpool2d_forward(in_value(n, 0), n.pool);
      n.argmax = std::make_shared<std::vector<std::int64_t>>(
          std::move(res.argmax));
      return std::move(res.output);
    }
    case OpKind::kGlobalAvgPool:
      return global_avgpool_forward(in_value(n, 0));
    case OpKind::kLogSoftmax:
      return log_softmax_rows(in_value(n, 0));
    case OpKind::kNllLoss: {
      const Tensor& lp = in_value(n, 0);
      const std::int64_t rows = lp.size(0);
      double loss = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        loss -= lp.at2(i, (*n.labels)[static_cast<std::size_t>(i)]);
      }
      loss /= static_cast<double>(rows);
      return Tensor::scalar(static_cast<float>(loss));
    }
  }
  throw std::logic_error(std::string("execute_forward: no kernel for ") +
                         op_kind_name(n.kind));
}

}  // namespace

void execute_forward(Node& n) {
  // The kernel sizes its own output, so the item count is known after it.
  obs::KernelScope probe(kernel_stats(n.kind, /*backward=*/false));
  n.value = forward_value(n);
  probe.set_items(n.value.numel());
}

void execute_backward(const Node& n, const GradSink& sink) {
  const obs::KernelScope probe(kernel_stats(n.kind, /*backward=*/true),
                               n.value.numel());
  switch (n.kind) {
    case OpKind::kLeaf:
      return;
    case OpKind::kAdd:
      sink(n.inputs[0], n.grad);
      sink(n.inputs[1], n.grad);
      return;
    case OpKind::kSub:
      sink(n.inputs[0], n.grad);
      sink(n.inputs[1], bd::neg(n.grad));
      return;
    case OpKind::kMul:
      sink(n.inputs[0], bd::mul(n.grad, in_value(n, 1)));
      sink(n.inputs[1], bd::mul(n.grad, in_value(n, 0)));
      return;
    case OpKind::kDiv: {
      const Tensor& av = in_value(n, 0);
      const Tensor& bv = in_value(n, 1);
      sink(n.inputs[0], bd::div(n.grad, bv));
      // d/db (a/b) = -a / b^2
      sink(n.inputs[1],
           bd::neg(bd::div(bd::mul(n.grad, av), bd::mul(bv, bv))));
      return;
    }
    case OpKind::kAddScalar:
      sink(n.inputs[0], n.grad);
      return;
    case OpKind::kMulScalar:
      sink(n.inputs[0], bd::mul_scalar(n.grad, n.scalar));
      return;
    case OpKind::kSqrt:
      sink(n.inputs[0],
           bd::zip(n.grad, n.value,
                   [](float g, float v) { return g / (v * 2.0f); },
                   op_kind_name(n.kind)));
      return;
    case OpKind::kRelu:
      sink(n.inputs[0], fused_grad(n, in_value(n, 0), [](float x) {
             return static_cast<float>(x > 0);
           }));
      return;
    case OpKind::kSigmoid:
      sink(n.inputs[0], fused_grad(n, n.value, [](float s) {
             return s * (1.0f - s);
           }));
      return;
    case OpKind::kHardsigmoid:
      sink(n.inputs[0], fused_grad(n, in_value(n, 0), [](float x) {
             return ((x > -3.0f) & (x < 3.0f)) ? (1.0f / 6.0f) : 0.0f;
           }));
      return;
    case OpKind::kHardswish:
      sink(n.inputs[0], fused_grad(n, in_value(n, 0), [](float x) {
             if (x <= -3.0f) return 0.0f;
             if (x >= 3.0f) return 1.0f;
             return (2.0f * x + 3.0f) / 6.0f;
           }));
      return;
    case OpKind::kReshape:
      sink(n.inputs[0], n.grad.reshape(in_value(n, 0).shape()));
      return;
    case OpKind::kReduceSum: {
      // Broadcast the (keepdim-shaped) gradient back over reduced dims.
      // add-with-zeros rather than a broadcast copy: (-0)+(+0) == +0, so a
      // copy would NOT be bitwise-identical to the historical formulation.
      const Tensor g = n.grad.reshape(
          bd::reduce_shape(in_value(n, 0).shape(), n.axes, /*keepdim=*/true));
      sink(n.inputs[0], bd::add(g, Tensor::zeros(in_value(n, 0).shape())));
      return;
    }
    case OpKind::kSumAll:
      sink(n.inputs[0], Tensor::full(in_value(n, 0).shape(), n.grad[0]));
      return;
    case OpKind::kMatmul:
      sink(n.inputs[0], bd::matmul(n.grad, in_value(n, 1), /*trans_a=*/false,
                                   /*trans_b=*/true));
      sink(n.inputs[1], bd::matmul(in_value(n, 0), n.grad, /*trans_a=*/true));
      return;
    case OpKind::kConv2d:
    case OpKind::kDepthwiseConv2d: {
      const bool has_bias = n.inputs.size() == 3;
      const Conv2dGrads grads =
          n.kind == OpKind::kConv2d
              ? conv2d_backward(in_value(n, 0), in_value(n, 1), has_bias,
                                n.grad, n.conv)
              : depthwise_conv2d_backward(in_value(n, 0), in_value(n, 1),
                                          has_bias, n.grad, n.conv);
      sink(n.inputs[0], grads.grad_input);
      sink(n.inputs[1], grads.grad_weight);
      if (has_bias) sink(n.inputs[2], grads.grad_bias);
      return;
    }
    case OpKind::kMaxPool2d:
      sink(n.inputs[0],
           maxpool2d_backward(in_value(n, 0).shape(), *n.argmax, n.grad));
      return;
    case OpKind::kGlobalAvgPool:
      sink(n.inputs[0],
           global_avgpool_backward(in_value(n, 0).shape(), n.grad));
      return;
    case OpKind::kLogSoftmax: {
      // dL/dx = g - softmax(x) * sum_j(g_j) per row.
      const Tensor& out = n.value;
      const std::int64_t rows = out.size(0), cols = out.size(1);
      Tensor gin(out.shape());
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* g = n.grad.data() + i * cols;
        const float* lp = out.data() + i * cols;
        float* o = gin.data() + i * cols;
        double gsum = 0.0;
        for (std::int64_t j = 0; j < cols; ++j) gsum += g[j];
        for (std::int64_t j = 0; j < cols; ++j) {
          o[j] = g[j] - std::exp(lp[j]) * static_cast<float>(gsum);
        }
      }
      sink(n.inputs[0], gin);
      return;
    }
    case OpKind::kNllLoss: {
      const Shape& lp_shape = in_value(n, 0).shape();
      const float g = n.grad[0] / static_cast<float>(lp_shape[0]);
      Tensor gin(lp_shape);
      for (std::int64_t i = 0; i < lp_shape[0]; ++i) {
        gin.at2(i, (*n.labels)[static_cast<std::size_t>(i)]) = -g;
      }
      sink(n.inputs[0], gin);
      return;
    }
  }
  throw std::logic_error("execute_backward: unhandled op kind");
}

}  // namespace bd::ag
