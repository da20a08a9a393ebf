#include "autograd/variable.h"

#include <stdexcept>

#include "autograd/schedule.h"

namespace bd::ag {

namespace {
thread_local bool g_grad_enabled = true;
}

bool grad_recording_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

Var::Var(Tensor value, bool requires_grad) : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->is_leaf = true;
}

Var Var::from_node(NodePtr node) {
  Var out;
  out.node_ = std::move(node);
  return out;
}

const Tensor& Var::value() const {
  if (!node_) throw std::logic_error("Var::value on undefined Var");
  return node_->value;
}

Tensor& Var::mutable_value() {
  if (!node_) throw std::logic_error("Var::mutable_value on undefined Var");
  return node_->value;
}

const Tensor& Var::grad() const {
  if (!node_ || !node_->grad.defined()) {
    throw std::logic_error("Var::grad: no gradient accumulated");
  }
  return node_->grad;
}

bool Var::has_grad() const { return node_ && node_->grad.defined(); }

bool Var::requires_grad() const { return node_ && node_->requires_grad; }

bool Var::is_leaf() const { return node_ && node_->is_leaf; }

const Shape& Var::shape() const {
  if (!node_) throw std::logic_error("Var::shape on undefined Var");
  return node_->value.shape();
}

void Var::zero_grad() {
  if (node_) node_->grad = Tensor();
}

void Var::backward() {
  if (!node_) throw std::logic_error("Var::backward on undefined Var");
  run_backward(node_);
}

Var Var::detach() const {
  if (!node_) return Var();
  return Var(value(), /*requires_grad=*/false);
}

}  // namespace bd::ag
