// Per-op execution for the autograd graph.
//
// execute_forward computes a node's value from its inputs' values when the
// node is built (ops.cpp); execute_backward propagates the node's gradient
// to its inputs through a GradSink. Both call exactly the kernels of
// src/tensor that the old eager tape called, in the same order per op —
// the bitwise-identity contract the determinism suite pins (see graph.h) —
// and each is the one kernel probe site of its direction:
// `kernel.<op>_fwd|_bwd`, with the node's output elements as items.
#pragma once

#include <functional>

#include "autograd/graph.h"

namespace bd::ag {

/// Computes n.value (and auxiliary state such as the maxpool argmax) from
/// n.inputs' values. Throws std::logic_error for a leaf.
void execute_forward(Node& n);

/// Receives one gradient contribution for a target node. The scheduler's
/// sink reduces broadcast gradients back to the target shape and routes
/// the result to a persistent (leaf/root) or transient (interior) gradient.
using GradSink = std::function<void(const NodePtr&, const Tensor&)>;

/// Propagates n.grad into n's inputs, invoking `sink` once per gradient
/// contribution in the operand order of the original op.
void execute_backward(const Node& n, const GradSink& sink);

}  // namespace bd::ag
