// Reverse-mode automatic differentiation over a lazy graph IR.
//
// A Var is a handle to a graph node (see graph.h). Operations in
// autograd/ops.h are graph BUILDERS: they validate and infer shapes
// immediately, with the kernels' own shape rules, but run no kernels.
// Execution happens at the value()/backward() boundaries through the
// deterministic scheduler in schedule.h.
// The API is source-compatible with the old eager tape; shape() now
// reports the build-time inferred shape without forcing execution.
//
// The defense code consumes exactly these gradients: the paper's filter
// score xi (Eq. 3) is the mean absolute entry of a conv weight's grad under
// the unlearning loss (Eq. 2).
#pragma once

#include <memory>

#include "autograd/graph.h"
#include "tensor/tensor.h"

namespace bd::ag {

/// True while gradient recording is enabled (see NoGradGuard).
bool grad_recording_enabled();

/// RAII scope that disables gradient recording (inference / evaluation).
/// Ops built inside still join the lazy graph so their values can be
/// computed on demand, but they are terminals for backward().
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

class Var {
 public:
  /// Undefined handle.
  Var() = default;

  /// Leaf node wrapping `value`.
  explicit Var(Tensor value, bool requires_grad = false);

  /// Handle adopting an existing node (used by the ops.h builders).
  static Var from_node(NodePtr node);

  bool defined() const { return static_cast<bool>(node_); }
  /// The node's value, materializing the pending subgraph if needed.
  const Tensor& value() const;
  /// Mutable access for optimizers; only valid on leaves.
  Tensor& mutable_value();
  const Tensor& grad() const;
  bool has_grad() const;
  bool requires_grad() const;
  bool is_leaf() const;
  /// Build-time inferred shape; never triggers execution.
  const Shape& shape() const;

  /// Clears this node's gradient.
  void zero_grad();

  /// Runs reverse-mode accumulation from this (scalar) node.
  void backward();

  /// Leaf sharing this node's (materialized) value, detached from the
  /// graph.
  Var detach() const;

  NodePtr node() const { return node_; }

 private:
  NodePtr node_;
};

}  // namespace bd::ag
