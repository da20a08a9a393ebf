#include "autograd/ops.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "autograd/exec.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace bd::ag {

namespace {

// Builds an op node and runs its forward kernel at once; the kernel sizes
// and validates its output with the op's src/tensor shape rule, so a
// malformed op throws from here. `set_attrs` fills the op's attributes
// before the kernel reads them. Mirrors the eager tape's recording rule:
// the node participates in backward only when recording is on and some
// input requires grad; otherwise it keeps no input edges.
template <typename SetAttrs>
Var make_op(OpKind kind, std::initializer_list<const Var*> ins,
            SetAttrs set_attrs) {
  auto n = std::make_shared<Node>();
  n->kind = kind;
  for (const Var* v : ins) {
    if (!v->defined()) {
      throw std::logic_error(std::string(op_kind_name(kind)) +
                             ": undefined input");
    }
    n->inputs.push_back(v->node());
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
  set_attrs(*n);
  execute_forward(*n);
  if (!n->requires_grad) n->inputs.clear();
  BD_OBS_COUNT("autograd.nodes_materialized", 1);
  return Var::from_node(std::move(n));
}

Var make_op(OpKind kind, std::initializer_list<const Var*> ins) {
  return make_op(kind, ins, [](Node&) {});
}

// conv2d and depthwise_conv2d; `bias` may be undefined.
Var make_conv(OpKind kind, const Var& input, const Var& weight,
              const Var& bias, const Conv2dSpec& spec) {
  const auto set_spec = [&spec](Node& n) { n.conv = spec; };
  return bias.defined() ? make_op(kind, {&input, &weight, &bias}, set_spec)
                        : make_op(kind, {&input, &weight}, set_spec);
}

}  // namespace

Var add(const Var& a, const Var& b) {
  return make_op(OpKind::kAdd, {&a, &b});
}

Var sub(const Var& a, const Var& b) {
  return make_op(OpKind::kSub, {&a, &b});
}

Var mul(const Var& a, const Var& b) {
  return make_op(OpKind::kMul, {&a, &b});
}

Var div(const Var& a, const Var& b) {
  return make_op(OpKind::kDiv, {&a, &b});
}

Var add_scalar(const Var& a, float s) {
  return make_op(OpKind::kAddScalar, {&a}, [s](Node& n) { n.scalar = s; });
}

Var mul_scalar(const Var& a, float s) {
  return make_op(OpKind::kMulScalar, {&a}, [s](Node& n) { n.scalar = s; });
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var sqrt(const Var& a) { return make_op(OpKind::kSqrt, {&a}); }

Var relu(const Var& a) { return make_op(OpKind::kRelu, {&a}); }

Var sigmoid(const Var& a) { return make_op(OpKind::kSigmoid, {&a}); }

Var hardsigmoid(const Var& a) { return make_op(OpKind::kHardsigmoid, {&a}); }

Var hardswish(const Var& a) { return make_op(OpKind::kHardswish, {&a}); }

Var reshape(const Var& a, Shape shape) {
  return make_op(OpKind::kReshape, {&a},
                 [&shape](Node& n) { n.reshape_to = std::move(shape); });
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
  return make_op(OpKind::kReduceSum, {&a}, [&](Node& n) {
    n.axes = axes;
    n.keepdim = keepdim;
  });
}

Var reduce_mean(const Var& a, const std::vector<std::int64_t>& axes,
                bool keepdim) {
  Var s = reduce_sum(a, axes, keepdim);
  const auto denom = static_cast<float>(
      shape_numel(a.shape()) /
      std::max<std::int64_t>(1, shape_numel(s.shape())));
  return mul_scalar(s, 1.0f / denom);
}

Var sum_all(const Var& a) { return make_op(OpKind::kSumAll, {&a}); }

Var mean_all(const Var& a) {
  return mul_scalar(sum_all(a),
                    1.0f / static_cast<float>(shape_numel(a.shape())));
}

Var matmul(const Var& a, const Var& b) {
  return make_op(OpKind::kMatmul, {&a, &b});
}

Var conv2d(const Var& input, const Var& weight, const Var& bias,
           const Conv2dSpec& spec) {
  return make_conv(OpKind::kConv2d, input, weight, bias, spec);
}

Var depthwise_conv2d(const Var& input, const Var& weight, const Var& bias,
                     const Conv2dSpec& spec) {
  return make_conv(OpKind::kDepthwiseConv2d, input, weight, bias, spec);
}

Var maxpool2d(const Var& input, const Pool2dSpec& spec) {
  return make_op(OpKind::kMaxPool2d, {&input},
                 [&spec](Node& n) { n.pool = spec; });
}

Var global_avgpool(const Var& input) {
  return make_op(OpKind::kGlobalAvgPool, {&input});
}

Var log_softmax(const Var& logits) {
  return make_op(OpKind::kLogSoftmax, {&logits});
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
  return make_op(OpKind::kNllLoss, {&log_probs}, [&labels](Node& n) {
    n.labels = std::make_shared<const std::vector<std::int64_t>>(labels);
  });
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
