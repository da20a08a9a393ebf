#include "optim/optim.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace bd::optim {

Optimizer::Optimizer(std::vector<ag::Var*> params)
    : params_(std::move(params)) {
  for (const auto* p : params_) {
    if (p == nullptr || !p->defined()) {
      throw std::invalid_argument("Optimizer: null or undefined parameter");
    }
  }
}

void Optimizer::zero_grad() {
  for (auto* p : params_) p->zero_grad();
}

float Optimizer::grad_norm() const {
  double total = 0.0;
  for (const auto* p : params_) {
    if (!p->has_grad()) continue;
    const float n = l2_norm(p->grad());
    total += static_cast<double>(n) * n;
  }
  return static_cast<float>(std::sqrt(total));
}

// ---------------------------------------------------------------------------
// SGD
// ---------------------------------------------------------------------------

Sgd::Sgd(std::vector<ag::Var*> params, SgdOptions options)
    : Optimizer(std::move(params)),
      options_(options),
      velocity_(params_.size()) {}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ag::Var* p = params_[i];
    if (!p->has_grad()) continue;
    Tensor& w = p->mutable_value();
    const Tensor& g = p->grad();

    Tensor update = g.clone();
    if (options_.weight_decay != 0.0f) {
      axpy_inplace(update, options_.weight_decay, w);
    }
    if (options_.momentum != 0.0f) {
      if (!velocity_[i].defined()) velocity_[i] = Tensor(w.shape());
      Tensor& v = velocity_[i];
      float* pv = v.data();
      const float* pu = update.data();
      for (std::int64_t j = 0; j < v.numel(); ++j) {
        pv[j] = options_.momentum * pv[j] + pu[j];
      }
      axpy_inplace(w, -options_.lr, v);
    } else {
      axpy_inplace(w, -options_.lr, update);
    }
  }
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

Adam::Adam(std::vector<ag::Var*> params, AdamOptions options)
    : Optimizer(std::move(params)),
      options_(options),
      m_(params_.size()),
      v_(params_.size()) {}

void Adam::step() {
  ++t_;
  const float bc1 =
      1.0f - std::pow(options_.beta1, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(options_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ag::Var* p = params_[i];
    if (!p->has_grad()) continue;
    Tensor& w = p->mutable_value();
    const Tensor& g = p->grad();

    if (!m_[i].defined()) {
      m_[i] = Tensor(w.shape());
      v_[i] = Tensor(w.shape());
    }
    float* pm = m_[i].data();
    float* pv = v_[i].data();
    const float* pg = g.data();
    float* pw = w.data();
    for (std::int64_t j = 0; j < w.numel(); ++j) {
      float grad = pg[j];
      if (options_.weight_decay != 0.0f) grad += options_.weight_decay * pw[j];
      pm[j] = options_.beta1 * pm[j] + (1.0f - options_.beta1) * grad;
      pv[j] = options_.beta2 * pv[j] + (1.0f - options_.beta2) * grad * grad;
      const float mhat = pm[j] / bc1;
      const float vhat = pv[j] / bc2;
      pw[j] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
    }
  }
}

// ---------------------------------------------------------------------------
// SAM
// ---------------------------------------------------------------------------

Sam::Sam(std::unique_ptr<Optimizer> base, float rho)
    : base_(std::move(base)), rho_(rho) {
  if (!base_) throw std::invalid_argument("Sam: null base optimizer");
  if (rho_ <= 0.0f) throw std::invalid_argument("Sam: rho must be positive");
}

void Sam::first_step() {
  if (perturbed_) throw std::logic_error("Sam::first_step called twice");
  const auto& params = base_->params();
  const float norm = base_->grad_norm();
  perturbation_.assign(params.size(), Tensor());
  if (norm > 0.0f) {
    const float scale = rho_ / norm;
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (!params[i]->has_grad()) continue;
      Tensor e = params[i]->grad().clone();
      float* pe = e.data();
      for (std::int64_t j = 0; j < e.numel(); ++j) pe[j] *= scale;
      axpy_inplace(params[i]->mutable_value(), 1.0f, e);
      perturbation_[i] = std::move(e);
    }
  }
  perturbed_ = true;
}

void Sam::second_step() {
  restore();
  base_->step();
}

void Sam::restore() {
  if (!perturbed_) throw std::logic_error("Sam: second_step or restore before first_step");
  const auto& params = base_->params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (perturbation_[i].defined()) {
      axpy_inplace(params[i]->mutable_value(), -1.0f, perturbation_[i]);
    }
  }
  perturbation_.clear();
  perturbed_ = false;
}

}  // namespace bd::optim
