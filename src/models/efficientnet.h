// EfficientNet-lite stand-in (see DESIGN.md substitutions): stem conv then
// a ladder of MBConv blocks with squeeze-excite and hard-swish, ending in a
// 1x1 head conv. Keeps the block structure (depthwise + SE) that makes
// pruning-based defenses harder on this family (paper Fig. 2).
#pragma once

#include "models/classifier.h"
#include "models/factory.h"
#include "models/mbconv.h"

namespace bd::models {

class EfficientNetLite : public Classifier {
 public:
  EfficientNetLite(const ModelSpec& spec, Rng& rng);

  StagedOutput forward_with_features(const ag::Var& x) override;
  const char* type_name() const override { return "EfficientNetLite"; }
  std::int64_t num_classes() const override { return num_classes_; }

 private:
  std::int64_t num_classes_;
  nn::Conv2d stem_;
  nn::BatchNorm2d stem_bn_;
  nn::Sequential stage1_, stage2_, stage3_;
  nn::Conv2d head_conv_;
  nn::BatchNorm2d head_bn_;
  nn::Linear head_;
};

}  // namespace bd::models
