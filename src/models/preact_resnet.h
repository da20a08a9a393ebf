// Pre-activation ResNet (He et al. 2016 style), the CIFAR-scale stand-in
// for the paper's PreactResNet-18 (see DESIGN.md substitutions).
//
// Topology: stem conv -> 3 stages of two pre-activation residual blocks
// with widths {w, 2w, 4w} (stride 2 entering stages 2 and 3) -> BN ->
// ReLU -> global average pool -> linear head.
#pragma once

#include <memory>

#include "models/classifier.h"
#include "models/factory.h"
#include "nn/layers.h"

namespace bd::models {

class PreActBlock : public nn::Module {
 public:
  PreActBlock(std::int64_t in_channels, std::int64_t out_channels,
              std::int64_t stride, Rng& rng);

  ag::Var forward(const ag::Var& x) override;
  const char* type_name() const override { return "PreActBlock"; }

 private:
  nn::BatchNorm2d bn1_;
  nn::Conv2d conv1_;
  nn::BatchNorm2d bn2_;
  nn::Conv2d conv2_;
  std::unique_ptr<nn::Conv2d> shortcut_;  // 1x1 when shape changes
};

class PreActResNet : public Classifier {
 public:
  PreActResNet(const ModelSpec& spec, Rng& rng);

  StagedOutput forward_with_features(const ag::Var& x) override;
  const char* type_name() const override { return "PreActResNet"; }
  std::int64_t num_classes() const override { return num_classes_; }

 private:
  std::int64_t num_classes_;
  nn::Conv2d stem_;
  nn::Sequential stage1_, stage2_, stage3_;
  nn::BatchNorm2d head_bn_;
  nn::Linear head_;
};

}  // namespace bd::models
