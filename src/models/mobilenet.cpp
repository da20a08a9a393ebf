#include "models/mobilenet.h"

namespace bd::models {

MobileNetV3Small::MobileNetV3Small(const ModelSpec& spec, Rng& rng)
    : num_classes_(spec.num_classes),
      stem_(spec.in_channels, spec.base_width, 3, 1, 1, /*bias=*/false, rng),
      stem_bn_(spec.base_width),
      head_(spec.base_width * 3, spec.num_classes, rng) {
  const std::int64_t w = spec.base_width;
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);

  // Early blocks use ReLU (as in MobileNetV3), later blocks hard-swish.
  stage1_.emplace<MBConv>(MBConvConfig{w, w, 2, 1, true, false}, rng);
  stage2_.emplace<MBConv>(MBConvConfig{w, 2 * w, 3, 2, true, false}, rng);
  stage2_.emplace<MBConv>(MBConvConfig{2 * w, 2 * w, 3, 1, true, true}, rng);
  stage3_.emplace<MBConv>(MBConvConfig{2 * w, 3 * w, 4, 2, true, true}, rng);
  stage3_.emplace<MBConv>(MBConvConfig{3 * w, 3 * w, 4, 1, true, true}, rng);

  register_module("stage1", stage1_);
  register_module("stage2", stage2_);
  register_module("stage3", stage3_);
  register_module("head", head_);
}

Classifier::StagedOutput MobileNetV3Small::forward_with_features(
    const ag::Var& x) {
  StagedOutput out;
  ag::Var h = ag::hardswish(stem_bn_.forward(stem_.forward(x)));
  h = stage1_.forward(h);
  out.stage_features.push_back(h);
  h = stage2_.forward(h);
  out.stage_features.push_back(h);
  h = stage3_.forward(h);
  out.stage_features.push_back(h);
  h = ag::global_avgpool(h);
  out.logits = head_.forward(h);
  return out;
}

}  // namespace bd::models
