// Reverse-mode automatic differentiation over an eagerly built graph.
//
// A Var is a handle to a graph node (see graph.h). Each operation in
// autograd/ops.h runs its kernel when it is called, so value() and shape()
// only read the node; backward() runs the deterministic reverse pass in
// schedule.h.
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
/// Ops built inside keep no input edges and are terminals for backward().
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
  const Tensor& value() const;
  /// Mutable access for optimizers; only valid on leaves.
  Tensor& mutable_value();
  const Tensor& grad() const;
  bool has_grad() const;
  bool requires_grad() const;
  /// Sets whether ops built from this leaf record a path to it, and so
  /// whether backward() accumulates into it. Throws std::logic_error on an
  /// undefined Var or a non-leaf, whose flag follows from its inputs.
  void set_requires_grad(bool requires_grad);
  bool is_leaf() const;
  /// The value's shape.
  const Shape& shape() const;

  /// Clears this node's gradient.
  void zero_grad();

  /// Runs reverse-mode accumulation from this (scalar) node.
  void backward();

  /// Leaf sharing this node's value, detached from the graph.
  Var detach() const;

  NodePtr node() const { return node_; }

 private:
  NodePtr node_;
};

}  // namespace bd::ag
