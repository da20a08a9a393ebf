// MobileNetV3 stand-in (see DESIGN.md substitutions): stem conv with
// hard-swish, MBConv blocks mixing ReLU and hard-swish with SE, then a
// pooled linear head - the architecture axis where the paper's Fig. 2
// reports the highest defense variance.
#pragma once

#include "models/classifier.h"
#include "models/factory.h"
#include "models/mbconv.h"

namespace bd::models {

class MobileNetV3Small : public Classifier {
 public:
  MobileNetV3Small(const ModelSpec& spec, Rng& rng);

  StagedOutput forward_with_features(const ag::Var& x) override;
  const char* type_name() const override { return "MobileNetV3Small"; }
  std::int64_t num_classes() const override { return num_classes_; }

 private:
  std::int64_t num_classes_;
  nn::Conv2d stem_;
  nn::BatchNorm2d stem_bn_;
  nn::Sequential stage1_, stage2_, stage3_;
  nn::Linear head_;
};

}  // namespace bd::models
