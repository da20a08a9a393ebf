// Deterministic topological scheduling for the graph IR.
//
// materialize() runs forward execution for every not-yet-computed node
// below a root, in graph-structural post-order (no clocks, no addresses,
// no thread interleavings — the schedule is a pure function of the graph,
// which is what keeps `bd table` output byte-stable). In gradient-free
// passes it additionally recycles intermediate values the moment their
// last scheduled consumer has run, provided the node's reference count
// proves no Var handle outside the schedule could ever read them.
//
// run_backward() replays the exact reverse topological order of the old
// eager tape (iterative DFS over grad-requiring edges) and executes the
// per-op backward kernels. Leaf and root gradients accumulate
// persistently across calls, exactly as before. An interior gradient is
// the backward kernel's own output, which may share storage with another
// node's gradient, so it is never written in place; it is dropped right
// after its node's backward step. arena.h holds the per-thread peak of
// interior-gradient bytes.
#pragma once

#include "autograd/graph.h"

namespace bd::ag {

/// Ensures root->value is defined, executing any unmaterialized
/// subgraph in deterministic post-order. No-op when already computed.
void materialize(const NodePtr& root);

/// Reverse-mode accumulation from a scalar root: materializes the forward
/// graph, then runs the backward pass. Throws std::logic_error when the
/// root is not scalar.
void run_backward(const NodePtr& root);

}  // namespace bd::ag
