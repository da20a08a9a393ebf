// Deterministic backward scheduling for the autograd graph.
//
// Forward kernels run when each node is built (ops.h), so the only pass
// left to schedule is the backward one. run_backward() replays the exact
// reverse topological order of the old eager tape (iterative DFS over
// grad-requiring edges; no clocks, no addresses, no thread interleavings)
// and executes the per-op backward kernels. Leaf and root gradients
// accumulate persistently across calls, exactly as before; every other
// node starts the pass with no gradient. An interior gradient is the
// backward kernel's own output, which may share storage with another
// node's gradient, so it is never written in place; it is dropped right
// after its node's backward step. arena.h holds the per-thread peak of
// interior-gradient bytes.
#pragma once

#include "autograd/graph.h"

namespace bd::ag {

/// Reverse-mode accumulation from a scalar root. Throws std::logic_error
/// when the root is not scalar.
void run_backward(const NodePtr& root);

}  // namespace bd::ag
