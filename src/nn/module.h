// Neural-network module hierarchy.
//
// A Module owns ag::Var parameters (leaves with requires_grad=true) and
// optional Tensor buffers (running statistics). Parameters and child
// modules are registered by name in constructors, which gives us recursive
// named state (state_dict), recursive train/eval switching, and typed
// traversal (the pruning defenses walk all Conv2d / BatchNorm2d layers).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"

namespace bd::nn {

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual ag::Var forward(const ag::Var& input) = 0;
  virtual const char* type_name() const = 0;

  /// All trainable parameters of this module and its children.
  std::vector<ag::Var*> parameters();

  /// Hierarchical "child.param" names with pointers.
  std::vector<std::pair<std::string, ag::Var*>> named_parameters();

  /// Parameters + buffers as name->tensor copies (deep).
  std::map<std::string, Tensor> state_dict() const;

  /// Loads a state dict produced by state_dict(); throws on missing keys or
  /// shape mismatches.
  void load_state_dict(const std::map<std::string, Tensor>& state);

  /// Recursively switches training mode (affects BatchNorm statistics).
  void set_training(bool training);
  bool training() const { return training_; }

  void zero_grad();

  /// Total parameter element count.
  std::int64_t parameter_count() const;

  /// Depth-first typed collection of this module and all descendants.
  template <typename T>
  std::vector<T*> modules_of_type() {
    std::vector<T*> found;
    visit([&found](Module& m) {
      if (auto* t = dynamic_cast<T*>(&m)) found.push_back(t);
    });
    return found;
  }

  /// Applies fn to this module and every descendant (pre-order).
  void visit(const std::function<void(Module&)>& fn);

  const std::vector<std::pair<std::string, Module*>>& children() const {
    return children_;
  }

 protected:
  void register_parameter(std::string name, ag::Var& param);
  void register_buffer(std::string name, Tensor& buffer);
  void register_module(std::string name, Module& child);

 private:
  void collect_named_parameters(
      const std::string& prefix,
      std::vector<std::pair<std::string, ag::Var*>>& out);
  void collect_state(const std::string& prefix,
                     std::map<std::string, Tensor>& out) const;
  void load_state(const std::string& prefix,
                  const std::map<std::string, Tensor>& state);

  std::vector<std::pair<std::string, ag::Var*>> params_;
  std::vector<std::pair<std::string, Tensor*>> buffers_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

/// Scope in which no parameter of `module` requires grad. Ops built inside
/// build no weight-gradient path, so backward() computes only the gradients
/// of other leaves: ANP's masks, an inverted trigger. Each parameter's flag
/// is restored when the scope ends, also when it unwinds. A backward() run
/// inside skips the frozen leaves also in a graph built before the scope.
class FrozenParameters {
 public:
  explicit FrozenParameters(Module& module);
  /// Freezes the given leaves instead, e.g. ANP's perturbations.
  explicit FrozenParameters(const std::vector<ag::Var*>& leaves);
  ~FrozenParameters();
  FrozenParameters(const FrozenParameters&) = delete;
  FrozenParameters& operator=(const FrozenParameters&) = delete;

 private:
  std::vector<std::pair<ag::Var*, bool>> saved_;
};

/// Sequential container owning its layers.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Adds a layer and returns a reference to it.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Module> layer);

  ag::Var forward(const ag::Var& input) override;
  const char* type_name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

// ---------------------------------------------------------------------------
// Stateless functional modules
// ---------------------------------------------------------------------------

class ReLU : public Module {
 public:
  ag::Var forward(const ag::Var& x) override { return ag::relu(x); }
  const char* type_name() const override { return "ReLU"; }
};

class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(Pool2dSpec spec) : spec_(spec) {}
  ag::Var forward(const ag::Var& x) override { return ag::maxpool2d(x, spec_); }
  const char* type_name() const override { return "MaxPool2d"; }

 private:
  Pool2dSpec spec_;
};

}  // namespace bd::nn
