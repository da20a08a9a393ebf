#include "autograd/graph.h"

#include <stdexcept>
#include <string>

#include "tensor/ops.h"

namespace bd::ag {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kLeaf: return "leaf";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kDiv: return "div";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kMulScalar: return "mul_scalar";
    case OpKind::kSqrt: return "sqrt";
    case OpKind::kRelu: return "relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kHardsigmoid: return "hardsigmoid";
    case OpKind::kHardswish: return "hardswish";
    case OpKind::kReshape: return "reshape";
    case OpKind::kReduceSum: return "reduce_sum";
    case OpKind::kSumAll: return "sum_all";
    case OpKind::kMatmul: return "matmul";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kDepthwiseConv2d: return "depthwise_conv2d";
    case OpKind::kMaxPool2d: return "maxpool2d";
    case OpKind::kGlobalAvgPool: return "global_avgpool";
    case OpKind::kBatchNorm: return "batch_norm";
    case OpKind::kLogSoftmax: return "log_softmax";
    case OpKind::kNllLoss: return "nll_loss";
  }
  return "unknown";
}

void Node::accumulate_grad(const Tensor& g) {
  if (g.shape() != value.shape()) {
    throw std::logic_error(std::string("accumulate_grad(") +
                           op_kind_name(kind) + "): gradient shape " +
                           shape_string(g.shape()) + " != value shape " +
                           shape_string(value.shape()));
  }
  if (!grad.defined()) {
    grad = g.clone();
  } else {
    axpy_inplace(grad, 1.0f, g);
  }
}

}  // namespace bd::ag
