#include "nn/module.h"

#include <stdexcept>

namespace bd::nn {

void Module::register_parameter(std::string name, ag::Var& param) {
  params_.emplace_back(std::move(name), &param);
}

void Module::register_buffer(std::string name, Tensor& buffer) {
  buffers_.emplace_back(std::move(name), &buffer);
}

void Module::register_module(std::string name, Module& child) {
  children_.emplace_back(std::move(name), &child);
}

std::vector<ag::Var*> Module::parameters() {
  std::vector<ag::Var*> out;
  for (const auto& [name, var] : named_parameters()) out.push_back(var);
  return out;
}

std::vector<std::pair<std::string, ag::Var*>> Module::named_parameters() {
  std::vector<std::pair<std::string, ag::Var*>> out;
  collect_named_parameters("", out);
  return out;
}

void Module::collect_named_parameters(
    const std::string& prefix,
    std::vector<std::pair<std::string, ag::Var*>>& out) {
  for (auto& [name, var] : params_) {
    out.emplace_back(prefix + name, var);
  }
  for (auto& [name, child] : children_) {
    child->collect_named_parameters(prefix + name + ".", out);
  }
}

std::map<std::string, Tensor> Module::state_dict() const {
  std::map<std::string, Tensor> out;
  collect_state("", out);
  return out;
}

void Module::collect_state(const std::string& prefix,
                           std::map<std::string, Tensor>& out) const {
  for (const auto& [name, var] : params_) {
    out[prefix + name] = var->value().clone();
  }
  for (const auto& [name, buf] : buffers_) {
    out[prefix + name] = buf->clone();
  }
  for (const auto& [name, child] : children_) {
    child->collect_state(prefix + name + ".", out);
  }
}

void Module::load_state_dict(const std::map<std::string, Tensor>& state) {
  load_state("", state);
}

void Module::load_state(const std::string& prefix,
                        const std::map<std::string, Tensor>& state) {
  auto fetch = [&state](const std::string& key) -> const Tensor& {
    const auto it = state.find(key);
    if (it == state.end()) {
      throw std::runtime_error("load_state_dict: missing key '" + key + "'");
    }
    return it->second;
  };
  for (auto& [name, var] : params_) {
    const Tensor& src = fetch(prefix + name);
    if (src.shape() != var->value().shape()) {
      throw std::runtime_error("load_state_dict: shape mismatch for '" +
                               prefix + name + "'");
    }
    var->mutable_value() = src.clone();
  }
  for (auto& [name, buf] : buffers_) {
    const Tensor& src = fetch(prefix + name);
    if (src.shape() != buf->shape()) {
      throw std::runtime_error("load_state_dict: shape mismatch for '" +
                               prefix + name + "'");
    }
    *buf = src.clone();
  }
  for (auto& [name, child] : children_) {
    child->load_state(prefix + name + ".", state);
  }
}

void Module::set_training(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->set_training(training);
}

void Module::zero_grad() {
  for (auto* p : parameters()) p->zero_grad();
}

std::int64_t Module::parameter_count() const {
  std::int64_t total = 0;
  for (const auto& [name, var] : params_) total += var->value().numel();
  for (const auto& [name, child] : children_) {
    total += child->parameter_count();
  }
  return total;
}

void Module::visit(const std::function<void(Module&)>& fn) {
  fn(*this);
  for (auto& [name, child] : children_) child->visit(fn);
}

FrozenParameters::FrozenParameters(Module& module)
    : FrozenParameters(module.parameters()) {}

FrozenParameters::FrozenParameters(const std::vector<ag::Var*>& leaves) {
  for (ag::Var* p : leaves) {
    saved_.emplace_back(p, p->requires_grad());
    p->set_requires_grad(false);
  }
}

FrozenParameters::~FrozenParameters() {
  // In reverse, so a parameter listed twice ends with its first saved flag.
  for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
    it->first->set_requires_grad(it->second);
  }
}

void Sequential::add(std::unique_ptr<Module> layer) {
  register_module("layer" + std::to_string(layers_.size()), *layer);
  layers_.push_back(std::move(layer));
}

ag::Var Sequential::forward(const ag::Var& input) {
  ag::Var x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

}  // namespace bd::nn
