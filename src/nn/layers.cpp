#include "nn/layers.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace bd::nn {

Tensor kaiming_normal(Shape shape, std::int64_t fan_in, Rng& rng) {
  Tensor t(std::move(shape));
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      spec_{stride, padding},
      pruned_(static_cast<std::size_t>(out_channels), false) {
  const std::int64_t fan_in = in_channels * kernel * kernel;
  weight_ = ag::Var(
      kaiming_normal({out_channels, in_channels, kernel, kernel}, fan_in, rng),
      /*requires_grad=*/true);
  register_parameter("weight", weight_);
  if (bias) {
    bias_ = ag::Var(Tensor::zeros({out_channels}), /*requires_grad=*/true);
    register_parameter("bias", bias_);
  }
}

ag::Var Conv2d::forward(const ag::Var& x) {
  return ag::conv2d(x, weight_, bias_, spec_);
}

void Conv2d::prune_filter(std::int64_t f) {
  if (f < 0 || f >= out_channels_) {
    throw std::out_of_range("Conv2d::prune_filter: filter " +
                            std::to_string(f) + " out of range");
  }
  pruned_[static_cast<std::size_t>(f)] = true;
  enforce_filter_masks();
}

void Conv2d::unprune_filter(std::int64_t f) {
  if (f < 0 || f >= out_channels_) {
    throw std::out_of_range("Conv2d::unprune_filter: filter " +
                            std::to_string(f) + " out of range");
  }
  pruned_[static_cast<std::size_t>(f)] = false;
}

bool Conv2d::is_filter_pruned(std::int64_t f) const {
  return pruned_.at(static_cast<std::size_t>(f));
}

std::int64_t Conv2d::pruned_filter_count() const {
  std::int64_t n = 0;
  for (const bool p : pruned_) n += p ? 1 : 0;
  return n;
}

void Conv2d::enforce_filter_masks() {
  Tensor& w = weight_.mutable_value();
  const std::int64_t filter_size = in_channels_ * kernel_ * kernel_;
  for (std::int64_t f = 0; f < out_channels_; ++f) {
    if (!pruned_[static_cast<std::size_t>(f)]) continue;
    float* pw = w.data() + f * filter_size;
    std::fill(pw, pw + filter_size, 0.0f);
    if (bias_.defined()) bias_.mutable_value()[f] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// DepthwiseConv2d
// ---------------------------------------------------------------------------

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t padding,
                                 bool bias, Rng& rng)
    : channels_(channels), spec_{stride, padding} {
  const std::int64_t fan_in = kernel * kernel;
  weight_ = ag::Var(kaiming_normal({channels, 1, kernel, kernel}, fan_in, rng),
                    /*requires_grad=*/true);
  register_parameter("weight", weight_);
  if (bias) {
    bias_ = ag::Var(Tensor::zeros({channels}), /*requires_grad=*/true);
    register_parameter("bias", bias_);
  }
}

ag::Var DepthwiseConv2d::forward(const ag::Var& x) {
  return ag::depthwise_conv2d(x, weight_, bias_, spec_);
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = ag::Var(kaiming_normal({in_features, out_features}, in_features, rng),
                    /*requires_grad=*/true);
  bias_ = ag::Var(Tensor::zeros({out_features}), /*requires_grad=*/true);
  register_parameter("weight", weight_);
  register_parameter("bias", bias_);
}

ag::Var Linear::forward(const ag::Var& x) {
  ag::Var input = x;
  if (x.shape().size() == 4) input = ag::flatten2d(x);
  if (input.shape().size() != 2 || input.shape()[1] != in_features_) {
    throw std::invalid_argument("Linear: expected (N, " +
                                std::to_string(in_features_) + "), got " +
                                shape_string(x.shape()));
  }
  ag::Var out = ag::matmul(input, weight_);
  return ag::add(out, ag::reshape(bias_, {1, out_features_}));
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum)
    : channels_(channels), eps_(eps), momentum_(momentum) {
  gamma_ = ag::Var(Tensor::ones({channels}), /*requires_grad=*/true);
  beta_ = ag::Var(Tensor::zeros({channels}), /*requires_grad=*/true);
  running_mean_ = Tensor::zeros({channels});
  running_var_ = Tensor::ones({channels});
  register_parameter("gamma", gamma_);
  register_parameter("beta", beta_);
  register_buffer("running_mean", running_mean_);
  register_buffer("running_var", running_var_);
}

ag::Var BatchNorm2d::forward(const ag::Var& x) {
  if (x.shape().size() != 4 || x.shape()[1] != channels_) {
    throw std::invalid_argument("BatchNorm2d: expected (N," +
                                std::to_string(channels_) + ",H,W), got " +
                                shape_string(x.shape()));
  }
  // Eval mode normalizes with the running statistics; training with the
  // batch's, which then update the running ones.
  BatchNormStats batch;
  ag::Var out = ag::batch_norm(
      x, gamma_, perturbation_, beta_, channel_mask_,
      {eps_, training(), running_mean_, running_var_}, &batch);
  if (training()) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      running_mean_[c] =
          (1.0f - momentum_) * running_mean_[c] + momentum_ * batch.mean[c];
      running_var_[c] =
          (1.0f - momentum_) * running_var_[c] + momentum_ * batch.var[c];
    }
  }
  return out;
}

void BatchNorm2d::suppress_channel(std::int64_t c) {
  if (c < 0 || c >= channels_) {
    throw std::out_of_range("BatchNorm2d::suppress_channel out of range");
  }
  gamma_.mutable_value()[c] = 0.0f;
  beta_.mutable_value()[c] = 0.0f;
}

// ---------------------------------------------------------------------------
// SEBlock
// ---------------------------------------------------------------------------

SEBlock::SEBlock(std::int64_t channels, std::int64_t reduction, Rng& rng)
    : channels_(channels),
      fc1_(channels, std::max<std::int64_t>(1, channels / reduction), rng),
      fc2_(std::max<std::int64_t>(1, channels / reduction), channels, rng) {
  register_module("fc1", fc1_);
  register_module("fc2", fc2_);
}

ag::Var SEBlock::forward(const ag::Var& x) {
  const std::int64_t n = x.shape()[0];
  ag::Var squeezed = ag::global_avgpool(x);                 // (N,C,1,1)
  squeezed = ag::reshape(squeezed, {n, channels_});         // (N,C)
  ag::Var attn = ag::relu(fc1_.forward(squeezed));
  attn = ag::hardsigmoid(fc2_.forward(attn));               // (N,C) in [0,1]
  attn = ag::reshape(attn, {n, channels_, 1, 1});
  return ag::mul(x, attn);
}

}  // namespace bd::nn
