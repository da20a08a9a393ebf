// The autograd graph.
//
// Each ops.h builder creates a Node (an OpKind, its input edges and the
// op's attributes) and runs the node's forward kernel (exec.h) right away,
// so a node's value is a pure function of its inputs' values at the moment
// it was built. A node that requires grad keeps its input edges for
// Var::backward(), where schedule.h replays them in reverse topological
// order; any other node drops them at once, so a gradient-free pass frees
// each intermediate as soon as its last Var goes out of scope. The kernels
// are the src/tensor routines the original eager tape called, in the same
// per-op order (Determinism.GraphIRInvariance pins that tape's golden
// hash).
//
// Gradient lifetimes: leaf gradients (parameters) live on the node and
// accumulate across backward() calls, exactly as before. INTERIOR
// gradients are transient — each is a backward kernel's output tensor,
// released as soon as the node's backward step has consumed it, so
// reading .grad() of a non-leaf after backward() throws. All production
// consumers (optimizers, Grad-Prune filter scoring, ANP masks, trigger
// inversion) read only leaf gradients.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/conv.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace bd::ag {

enum class OpKind : std::uint8_t {
  kLeaf,
  // Elementwise binary (broadcasting).
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Elementwise with scalar.
  kAddScalar,
  kMulScalar,
  // Elementwise unary.
  kSqrt,
  kRelu,
  kSigmoid,
  kHardsigmoid,
  kHardswish,
  // Shape.
  kReshape,
  // Reductions.
  kReduceSum,
  kSumAll,
  // Linear algebra.
  kMatmul,
  // Convolutions.
  kConv2d,
  kDepthwiseConv2d,
  // Pooling.
  kMaxPool2d,
  kGlobalAvgPool,
  // Losses.
  kLogSoftmax,
  kNllLoss,
};

/// Stable display name ("add", "conv2d", ...) for errors and traces.
const char* op_kind_name(OpKind kind);

struct Node;
using NodePtr = std::shared_ptr<Node>;

struct Node {
  OpKind kind = OpKind::kLeaf;
  /// Mirrors the eager tape: false for leaves without requires_grad, for
  /// every node built under NoGradGuard, and for ops none of whose inputs
  /// require grad.
  bool requires_grad = false;
  /// True for genuine leaves AND for op nodes recorded without gradient
  /// (NoGradGuard / no grad-requiring input) — the backward pass treats
  /// both as terminals, exactly as the old tape did.
  bool is_leaf = true;
  /// Dropped once the forward kernel has run, unless requires_grad: only
  /// the backward pass follows them.
  std::vector<NodePtr> inputs;

  // --- attributes, interpreted per kind ---
  float scalar = 0.0f;  // kAddScalar / kMulScalar
  Conv2dSpec conv;      // kConv2d / kDepthwiseConv2d
  Pool2dSpec pool;      // kMaxPool2d
  std::vector<std::int64_t> axes;  // kReduceSum, as the caller gave them
  bool keepdim = false;            // kReduceSum
  Shape reshape_to;                // kReshape
  std::shared_ptr<const std::vector<std::int64_t>> labels;  // kNllLoss

  // --- execution state ---
  Tensor value;  // the forward kernel's output; the wrapped tensor on leaves
  Tensor grad;   // persistent on leaves and backward roots; transient else
  std::shared_ptr<std::vector<std::int64_t>> argmax;  // kMaxPool2d aux

  /// Adds g to this node's persistent grad (allocating on first use);
  /// throws std::logic_error on shape mismatch. Used for leaves and the
  /// backward root — interior gradients accumulate in the scheduler's sink.
  void accumulate_grad(const Tensor& g);
};

}  // namespace bd::ag
