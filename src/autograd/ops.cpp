#include "autograd/ops.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.h"

namespace bd::ag {

namespace {

// Builds an op node: the shape the op's tensor rule infers (the rule its
// kernel sizes its output with), defined inputs, grad flags. No kernel
// runs here — execution is deferred to the value()/backward() boundaries.
// Mirrors the eager tape's recording rule: the node participates in
// backward only when recording is on and some input requires grad.
Var make_op(OpKind kind, Shape shape, std::initializer_list<const Var*> ins) {
  auto n = std::make_shared<Node>();
  n->kind = kind;
  n->shape = std::move(shape);
  for (const Var* v : ins) {
    if (v->defined()) n->inputs.push_back(v->node());
  }
  if (grad_recording_enabled()) {
    for (const auto& in : n->inputs) {
      if (in->requires_grad) {
        n->requires_grad = true;
        n->is_leaf = false;
        break;
      }
    }
  }
  return Var::from_node(std::move(n));
}

}  // namespace

Var add(const Var& a, const Var& b) {
  return make_op(OpKind::kAdd, broadcast_shape(a.shape(), b.shape(), "add"),
                 {&a, &b});
}

Var sub(const Var& a, const Var& b) {
  return make_op(OpKind::kSub, broadcast_shape(a.shape(), b.shape(), "sub"),
                 {&a, &b});
}

Var mul(const Var& a, const Var& b) {
  return make_op(OpKind::kMul, broadcast_shape(a.shape(), b.shape(), "mul"),
                 {&a, &b});
}

Var div(const Var& a, const Var& b) {
  return make_op(OpKind::kDiv, broadcast_shape(a.shape(), b.shape(), "div"),
                 {&a, &b});
}

Var add_scalar(const Var& a, float s) {
  Var out = make_op(OpKind::kAddScalar, a.shape(), {&a});
  out.node()->scalar = s;
  return out;
}

Var mul_scalar(const Var& a, float s) {
  Var out = make_op(OpKind::kMulScalar, a.shape(), {&a});
  out.node()->scalar = s;
  return out;
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var sqrt(const Var& a) { return make_op(OpKind::kSqrt, a.shape(), {&a}); }

Var relu(const Var& a) { return make_op(OpKind::kRelu, a.shape(), {&a}); }

Var sigmoid(const Var& a) {
  return make_op(OpKind::kSigmoid, a.shape(), {&a});
}

Var hardsigmoid(const Var& a) {
  return make_op(OpKind::kHardsigmoid, a.shape(), {&a});
}

Var hardswish(const Var& a) {
  return make_op(OpKind::kHardswish, a.shape(), {&a});
}

Var reshape(const Var& a, Shape shape) {
  check_reshape(a.shape(), shape);
  return make_op(OpKind::kReshape, std::move(shape), {&a});
}

Var flatten2d(const Var& a) {
  const Shape& s = a.shape();
  if (s.size() != 4) {
    throw std::invalid_argument("flatten2d: expected rank-4 input");
  }
  return reshape(a, {s[0], s[1] * s[2] * s[3]});
}

Var reduce_sum(const Var& a, const std::vector<std::int64_t>& axes,
               bool keepdim) {
  Var out = make_op(OpKind::kReduceSum,
                    reduce_shape(a.shape(), axes, keepdim), {&a});
  Node& n = *out.node();
  n.axes = axes;
  n.keepdim = keepdim;
  return out;
}

Var reduce_mean(const Var& a, const std::vector<std::int64_t>& axes,
                bool keepdim) {
  Var s = reduce_sum(a, axes, keepdim);
  const auto denom = static_cast<float>(
      shape_numel(a.shape()) /
      std::max<std::int64_t>(1, shape_numel(s.shape())));
  return mul_scalar(s, 1.0f / denom);
}

Var sum_all(const Var& a) {
  static_cast<void>(a.shape());  // throws on an undefined handle
  return make_op(OpKind::kSumAll, Shape{}, {&a});
}

Var mean_all(const Var& a) {
  return mul_scalar(sum_all(a),
                    1.0f / static_cast<float>(shape_numel(a.shape())));
}

Var matmul(const Var& a, const Var& b) {
  return make_op(OpKind::kMatmul, matmul_shape(a.shape(), b.shape()),
                 {&a, &b});
}

Var conv2d(const Var& input, const Var& weight, const Var& bias,
           const Conv2dSpec& spec) {
  const Shape* bias_shape = bias.defined() ? &bias.shape() : nullptr;
  Var out = make_op(OpKind::kConv2d,
                    conv2d_shape(input.shape(), weight.shape(), bias_shape,
                                 spec, /*depthwise=*/false),
                    {&input, &weight, &bias});
  out.node()->conv = spec;
  return out;
}

Var depthwise_conv2d(const Var& input, const Var& weight, const Var& bias,
                     const Conv2dSpec& spec) {
  const Shape* bias_shape = bias.defined() ? &bias.shape() : nullptr;
  Var out = make_op(OpKind::kDepthwiseConv2d,
                    conv2d_shape(input.shape(), weight.shape(), bias_shape,
                                 spec, /*depthwise=*/true),
                    {&input, &weight, &bias});
  out.node()->conv = spec;
  return out;
}

Var maxpool2d(const Var& input, const Pool2dSpec& spec) {
  Var out = make_op(OpKind::kMaxPool2d, pool2d_shape(input.shape(), spec),
                    {&input});
  out.node()->pool = spec;
  return out;
}

Var global_avgpool(const Var& input) {
  return make_op(OpKind::kGlobalAvgPool, global_avgpool_shape(input.shape()),
                 {&input});
}

Var log_softmax(const Var& logits) {
  check_rows(logits.shape(), "log_softmax_rows");
  return make_op(OpKind::kLogSoftmax, logits.shape(), {&logits});
}

Var nll_loss(const Var& log_probs, const std::vector<std::int64_t>& labels) {
  const Shape& lp = log_probs.shape();
  if (lp.size() != 2 ||
      lp[0] != static_cast<std::int64_t>(labels.size())) {
    throw std::invalid_argument("nll_loss: log_probs (N,C) and N labels");
  }
  for (const std::int64_t y : labels) {
    if (y < 0 || y >= lp[1]) {
      throw std::invalid_argument("nll_loss: label out of range");
    }
  }
  Var out = make_op(OpKind::kNllLoss, Shape{}, {&log_probs});
  out.node()->labels =
      std::make_shared<const std::vector<std::int64_t>>(labels);
  return out;
}

Var cross_entropy(const Var& logits,
                  const std::vector<std::int64_t>& labels) {
  return nll_loss(log_softmax(logits), labels);
}

Var mse_loss(const Var& a, const Var& b) {
  check_same_shape(a.shape(), b.shape(), "mse_loss");
  Var d = sub(a, b);
  return mean_all(mul(d, d));
}

}  // namespace bd::ag
