// The autograd graph IR.
//
// ops.h builders create Nodes: an OpKind, the input edges, the op's
// attributes, and a build-time inferred shape (each op's shape rule in
// src/tensor, the one its kernel sizes its output with). No kernel
// runs at build time — execution is deferred to the Var::value() /
// Var::backward() boundaries, where the deterministic scheduler
// (schedule.h) materializes values in graph post-order and runs the
// backward pass. exec.h holds the per-kind forward/backward kernels; they
// call exactly the same src/tensor routines, in the same per-op order, as
// the old eager tape, which is what keeps the refactor bitwise-invisible
// (Determinism.GraphIRInvariance pins this against a pre-refactor golden
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
  /// Set when an eval-mode materialization recycled this node's value
  /// after proving no live handle could ever read it again; guards the
  /// error path in Var::value().
  bool value_released = false;

  /// Inferred at build time; always valid, even before materialization.
  Shape shape;
  std::vector<NodePtr> inputs;

  // --- attributes, interpreted per kind ---
  float scalar = 0.0f;  // kAddScalar / kMulScalar
  Conv2dSpec conv;      // kConv2d / kDepthwiseConv2d
  Pool2dSpec pool;      // kMaxPool2d
  std::vector<std::int64_t> axes;  // kReduceSum, as the caller gave them
  bool keepdim = false;            // kReduceSum
  std::shared_ptr<const std::vector<std::int64_t>> labels;  // kNllLoss

  // --- execution state ---
  Tensor value;  // defined once materialized (immediately, for leaves)
  Tensor grad;   // persistent on leaves and backward roots; transient else
  std::shared_ptr<std::vector<std::int64_t>> argmax;  // kMaxPool2d aux

  /// Adds g to this node's persistent grad (allocating on first use);
  /// throws std::logic_error on shape mismatch. Used for leaves and the
  /// backward root — interior gradients accumulate in the scheduler's sink.
  void accumulate_grad(const Tensor& g);
};

}  // namespace bd::ag
