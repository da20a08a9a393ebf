#include "autograd/schedule.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "autograd/arena.h"
#include "autograd/exec.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace bd::ag {

void run_backward(const NodePtr& root) {
  if (root->value.numel() != 1) {
    throw std::logic_error("Var::backward requires a scalar output, got " +
                           shape_string(root->value.shape()));
  }

  // Reverse topological order via iterative DFS over grad-requiring edges —
  // replicated exactly from the eager tape so gradient accumulation happens
  // in the identical sequence (the float-addition order is part of the
  // bitwise-determinism contract).
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->inputs.size()) {
      Node* child = node->inputs[next_child++].get();
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  // A non-leaf node other than this pass's root starts with no gradient:
  // one that was an earlier pass's root still holds that pass's seed.
  Node* const root_raw = root.get();
  for (Node* node : order) {
    if (!node->is_leaf && node != root_raw) node->grad = Tensor();
  }

  // An interior gradient is the first contribution's tensor itself, which
  // may share storage with another node's gradient (add and add_scalar pass
  // n.grad through, reshape passes a view of it). So later contributions
  // accumulate out of place; x + y has the bits of x += 1 * y. `held` counts
  // the interior-gradient bytes alive at once.
  const auto grad_bytes = [](const Node& n) {
    return n.value.numel() * static_cast<std::int64_t>(sizeof(float));
  };
  std::int64_t held = 0;
  std::int64_t peak = 0;
  const GradSink sink = [&](const NodePtr& target, const Tensor& g) {
    // backprop_to of the eager tape: ignore non-grad operands, reduce
    // broadcast gradients back to the operand shape, then accumulate.
    if (!target || !target->requires_grad) return;
    Node* t = target.get();
    const bool reduce = g.shape() != t->value.shape();
    const Tensor gg = reduce ? reduce_to_shape(g, t->value.shape()) : Tensor();
    const Tensor& contribution = reduce ? gg : g;
    if (t->is_leaf || t == root_raw) {
      t->accumulate_grad(contribution);
    } else if (t->grad.defined()) {
      t->grad = bd::add(t->grad, contribution);
    } else {
      t->grad = contribution;
      held += grad_bytes(*t);
      peak = std::max(peak, held);
    }
  };

  root->accumulate_grad(Tensor::ones(root->value.shape()));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (!node->is_leaf && node->grad.defined()) execute_backward(*node, sink);
    if (!node->is_leaf && node != root_raw && node->grad.defined()) {
      node->grad = Tensor();  // consumed: interior gradients are transient
      held -= grad_bytes(*node);
    }
  }

  GradArena::local().record_pass(peak);
  BD_OBS_GAUGE("autograd.arena_peak_bytes", peak);
  BD_OBS_COUNT("autograd.backward_passes", 1);
}

}  // namespace bd::ag
