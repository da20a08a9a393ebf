// Trainable layers: convolutions, linear, batch normalization, and the
// squeeze-excite block used by the EfficientNet / MobileNetV3 models.
//
// Conv2d carries an output-filter mask so the pruning defenses (ours, FP,
// CLP) can zero a filter and keep it zero through subsequent fine-tuning.
// BatchNorm2d is one ag::batch_norm op plus the running-statistics update;
// it accepts an optional per-channel mask / perturbation variable, which
// the op carries as operands and the ANP defense optimizes.
#pragma once

#include "nn/module.h"
#include "util/rng.h"

namespace bd::nn {

/// Kaiming-normal initialization for conv/linear weights (fan-in mode).
Tensor kaiming_normal(Shape shape, std::int64_t fan_in, Rng& rng);

class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         bool bias, Rng& rng);

  ag::Var forward(const ag::Var& x) override;
  const char* type_name() const override { return "Conv2d"; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  bool has_bias() const { return bias_.defined(); }

  ag::Var& weight() { return weight_; }
  ag::Var& bias() { return bias_; }

  /// Zeroes filter f's weights (and bias) and marks it pruned; pruned
  /// filters are re-zeroed by enforce_filter_masks() after optimizer steps.
  void prune_filter(std::int64_t f);
  /// Clears the prune flag (does not restore weights; callers that roll
  /// back a prune must also restore the parameter state).
  void unprune_filter(std::int64_t f);
  bool is_filter_pruned(std::int64_t f) const;
  std::int64_t pruned_filter_count() const;
  /// Re-applies all prune masks to the weight/bias tensors.
  void enforce_filter_masks();

 private:
  std::int64_t in_channels_, out_channels_, kernel_;
  Conv2dSpec spec_;
  ag::Var weight_;  // (out, in, k, k)
  ag::Var bias_;    // (out) or undefined
  std::vector<bool> pruned_;
};

class DepthwiseConv2d : public Module {
 public:
  DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                  std::int64_t stride, std::int64_t padding, bool bias,
                  Rng& rng);

  ag::Var forward(const ag::Var& x) override;
  const char* type_name() const override { return "DepthwiseConv2d"; }

  std::int64_t channels() const { return channels_; }
  ag::Var& weight() { return weight_; }

 private:
  std::int64_t channels_;
  Conv2dSpec spec_;
  ag::Var weight_;  // (C, 1, k, k)
  ag::Var bias_;
};

class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  /// Accepts (N, in) or (N, C, H, W) with C*H*W == in (auto-flatten).
  ag::Var forward(const ag::Var& x) override;
  const char* type_name() const override { return "Linear"; }

  ag::Var& weight() { return weight_; }
  ag::Var& bias() { return bias_; }

 private:
  std::int64_t in_features_, out_features_;
  ag::Var weight_;  // (in, out)
  ag::Var bias_;    // (out)
};

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  ag::Var forward(const ag::Var& x) override;
  const char* type_name() const override { return "BatchNorm2d"; }

  std::int64_t channels() const { return channels_; }
  ag::Var& gamma() { return gamma_; }
  ag::Var& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

  /// ANP hook: per-channel multiplicative mask on gamma ((C) shaped Var).
  /// Undefined (default) means no mask.
  void set_channel_mask(ag::Var mask) { channel_mask_ = std::move(mask); }
  void clear_channel_mask() { channel_mask_ = ag::Var(); }
  const ag::Var& channel_mask() const { return channel_mask_; }

  /// ANP hook: adversarial multiplicative perturbation on gamma, applied as
  /// gamma * (1 + delta).
  void set_gamma_perturbation(ag::Var delta) { perturbation_ = std::move(delta); }
  void clear_gamma_perturbation() { perturbation_ = ag::Var(); }

  /// Permanently silences channel c (gamma = beta = 0).
  void suppress_channel(std::int64_t c);

 private:
  std::int64_t channels_;
  float eps_, momentum_;
  ag::Var gamma_, beta_;  // (C)
  Tensor running_mean_, running_var_;
  ag::Var channel_mask_;   // optional (C)
  ag::Var perturbation_;   // optional (C)
};

/// Squeeze-and-Excite: global pool -> FC reduce -> ReLU -> FC expand ->
/// hard-sigmoid -> channel-wise rescale.
class SEBlock : public Module {
 public:
  SEBlock(std::int64_t channels, std::int64_t reduction, Rng& rng);

  ag::Var forward(const ag::Var& x) override;
  const char* type_name() const override { return "SEBlock"; }

 private:
  std::int64_t channels_;
  Linear fc1_, fc2_;
};

}  // namespace bd::nn
