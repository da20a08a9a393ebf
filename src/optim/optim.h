// Optimizers: SGD with momentum / weight decay, Adam, and Sharpness-Aware
// Minimization (SAM). SAM is required by the FT-SAM baseline defense
// (Zhu et al. 2023): each update first ascends to the worst-case nearby
// weights (first_step), re-evaluates the loss there, then descends with the
// base rule from the original point (second_step).
#pragma once

#include <memory>
#include <vector>

#include "autograd/variable.h"

namespace bd::optim {

class Optimizer {
 public:
  explicit Optimizer(std::vector<ag::Var*> params);
  virtual ~Optimizer() = default;

  /// Applies one update using each parameter's accumulated gradient.
  /// Parameters with no gradient are skipped.
  virtual void step() = 0;

  void zero_grad();
  const std::vector<ag::Var*>& params() const { return params_; }

  /// Global L2 norm over all parameter gradients (0 if none).
  float grad_norm() const;

 protected:
  std::vector<ag::Var*> params_;
};

struct SgdOptions {
  float lr = 0.01f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ag::Var*> params, SgdOptions options);
  void step() override;

  SgdOptions& options() { return options_; }

 private:
  SgdOptions options_;
  std::vector<Tensor> velocity_;  // lazily allocated per param
};

struct AdamOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<ag::Var*> params, AdamOptions options);
  void step() override;

  AdamOptions& options() { return options_; }

 private:
  AdamOptions options_;
  std::vector<Tensor> m_, v_;
  std::int64_t t_ = 0;
};

/// Sharpness-aware minimization wrapper (Foret et al., as used by FT-SAM).
///
/// Usage per batch:
///   loss1.backward(); sam.first_step();     // move to w + e(w)
///   zero_grad(); loss2.backward(); sam.second_step();  // restore, update
class Sam {
 public:
  Sam(std::unique_ptr<Optimizer> base, float rho);

  /// Perturbs parameters by rho * g / ||g|| and remembers the perturbation.
  void first_step();

  /// Restores the original parameters and applies the base optimizer step
  /// with the gradients computed at the perturbed point.
  void second_step();

  /// Restores the original parameters without an update (for a rejected
  /// perturbed-point gradient).
  void restore();

  Optimizer& base() { return *base_; }
  void zero_grad() { base_->zero_grad(); }

 private:
  std::unique_ptr<Optimizer> base_;
  float rho_;
  std::vector<Tensor> perturbation_;
  bool perturbed_ = false;
};

}  // namespace bd::optim
