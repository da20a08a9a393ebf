#include "autograd/schedule.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "autograd/arena.h"
#include "autograd/exec.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace bd::ag {
namespace {

/// The one kernel probe site, `kernel.<op_kind_name>_fwd|_bwd`; items are
/// the node's output elements. Instruments register on a probe's first
/// use, so metrics list only kinds that ran, and so does the `gemm.kernel`
/// label that names the micro-kernel under conv and matmul (bd_tensor does
/// not link bd_obs). kNllLoss is the last OpKind.
obs::KernelScope kernel_scope(const Node& n, bool backward) {
  constexpr auto kKinds = static_cast<std::size_t>(OpKind::kNllLoss) + 1;
  static std::array<std::once_flag, 2 * kKinds> registered;
  static std::array<obs::KernelStats*, 2 * kKinds> stats;
  const std::size_t i = 2 * static_cast<std::size_t>(n.kind) + backward;
  std::call_once(registered[i], [&] {
    obs::registry().set_label("gemm.kernel", gemm_kernel_name());
    stats[i] = &obs::kernel_stats(std::string("kernel.") +
                                  op_kind_name(n.kind) +
                                  (backward ? "_bwd" : "_fwd"));
  });
  return {*stats[i], shape_numel(n.shape)};
}

}  // namespace

void materialize(const NodePtr& root) {
  if (!root || root->value.defined()) return;
  if (root->value_released) {
    throw std::logic_error("materialize: value of this node was recycled");
  }

  // Post-order DFS over the unmaterialized subgraph. The order is a pure
  // function of graph structure, so materialization is deterministic no
  // matter when value() forces it.
  std::vector<NodePtr> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<NodePtr, std::size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_input] = stack.back();
    if (next_input < node->inputs.size()) {
      const NodePtr& child = node->inputs[next_input++];
      if (!child->value.defined() && !visited.count(child.get())) {
        if (child->value_released) {
          throw std::logic_error(
              "materialize: value of a consumed node was recycled");
        }
        visited.insert(child.get());
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  bool any_requires_grad = false;
  for (const auto& n : order) {
    if (n->requires_grad) {
      any_requires_grad = true;
      break;
    }
  }

  // Value recycling is only legal in gradient-free passes: a backward pass
  // reads input values, so anything a grad-requiring node consumes must
  // outlive the pass. In pure inference the old eager engine freed each
  // intermediate when its Var left scope; recycling restores that peak.
  const bool recycle = !any_requires_grad;
  std::unordered_map<Node*, std::int64_t> consumer_edges;
  std::unordered_map<Node*, std::int64_t> remaining;
  if (recycle) {
    for (const auto& n : order) {
      for (const auto& in : n->inputs) ++consumer_edges[in.get()];
    }
    remaining = consumer_edges;
  }

  std::uint64_t recycled = 0;
  for (const auto& n : order) {
    {
      const obs::KernelScope probe = kernel_scope(*n, /*backward=*/false);
      execute_forward(*n);
    }
    assert(n->value.shape() == n->shape &&
           "shape inference disagrees with the kernel");
    if (!recycle) continue;
    for (const auto& in : n->inputs) {
      const auto it = remaining.find(in.get());
      if (it == remaining.end() || --(it->second) != 0) continue;
      Node* c = in.get();
      // Eligible: an op node scheduled this pass, gradient-free, not the
      // root — and provably unreachable from outside the schedule: the only
      // NodePtr refs are our order vector (1) plus its consumers' input
      // edges. Any Var handle or out-of-schedule consumer raises use_count
      // above that and vetoes the release.
      if (c->kind == OpKind::kLeaf || c->requires_grad || c == root.get() ||
          !visited.count(c)) {
        continue;
      }
      const auto expected = 1 + consumer_edges[c];
      if (static_cast<std::int64_t>(in.use_count()) == expected) {
        c->value = Tensor();
        c->value_released = true;
        ++recycled;
      }
    }
  }

  // Gradient-free nodes never run backward; dropping their input edges
  // releases subgraph metadata and mirrors the eager tape, which recorded
  // no parents for them at all.
  for (const auto& n : order) {
    if (!n->requires_grad) n->inputs.clear();
  }

  BD_OBS_COUNT("autograd.nodes_materialized", order.size());
  if (recycled > 0) BD_OBS_COUNT("autograd.values_recycled", recycled);
}

void run_backward(const NodePtr& root) {
  if (shape_numel(root->shape) != 1) {
    throw std::logic_error("Var::backward requires a scalar output, got " +
                           shape_string(root->shape));
  }
  materialize(root);

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

  // An interior gradient is the first contribution's tensor itself, which
  // may share storage with another node's gradient (add and add_scalar pass
  // n.grad through, reshape passes a view of it). So later contributions
  // accumulate out of place; x + y has the bits of x += 1 * y. `held` counts
  // the interior-gradient bytes alive at once, including one a previous
  // pass's root kept.
  Node* const root_raw = root.get();
  const auto grad_bytes = [](const Node& n) {
    return shape_numel(n.shape) * static_cast<std::int64_t>(sizeof(float));
  };
  std::int64_t held = 0;
  for (Node* node : order) {
    if (!node->is_leaf && node != root_raw && node->grad.defined()) {
      held += grad_bytes(*node);
    }
  }
  std::int64_t peak = held;
  const GradSink sink = [&](const NodePtr& target, const Tensor& g) {
    // backprop_to of the eager tape: ignore non-grad operands, reduce
    // broadcast gradients back to the operand shape, then accumulate.
    if (!target || !target->requires_grad) return;
    Node* t = target.get();
    const bool reduce = g.shape() != t->shape;
    const Tensor gg = reduce ? reduce_to_shape(g, t->shape) : Tensor();
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
    if (!node->is_leaf && node->grad.defined()) {
      const obs::KernelScope probe = kernel_scope(*node, /*backward=*/true);
      execute_backward(*node, sink);
    }
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
