// VGG-style plain convolutional network with batch normalization, the
// stand-in for the paper's VGG-19+BN (see DESIGN.md substitutions).
//
// Two Conv(3x3)+BN+ReLU per stage (6 conv layers), stages separated by
// max-pooling; widths {w, 2w, 4w}.
#pragma once

#include "models/classifier.h"
#include "models/factory.h"
#include "nn/layers.h"

namespace bd::models {

class VggBn : public Classifier {
 public:
  VggBn(const ModelSpec& spec, Rng& rng);

  StagedOutput forward_with_features(const ag::Var& x) override;
  const char* type_name() const override { return "VggBn"; }
  std::int64_t num_classes() const override { return num_classes_; }

 private:
  std::int64_t num_classes_;
  nn::Sequential stage1_, stage2_, stage3_;
  nn::Linear head_;
};

}  // namespace bd::models
