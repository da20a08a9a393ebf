#include "models/efficientnet.h"

namespace bd::models {

EfficientNetLite::EfficientNetLite(const ModelSpec& spec, Rng& rng)
    : num_classes_(spec.num_classes),
      stem_(spec.in_channels, spec.base_width, 3, 1, 1, /*bias=*/false, rng),
      stem_bn_(spec.base_width),
      head_conv_(spec.base_width * 4, spec.base_width * 4, 1, 1, 0,
                 /*bias=*/false, rng),
      head_bn_(spec.base_width * 4),
      head_(spec.base_width * 4, spec.num_classes, rng) {
  const std::int64_t w = spec.base_width;
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);

  // Stage 1: no expansion, keeps width.
  stage1_.emplace<MBConv>(MBConvConfig{w, w, 1, 1, true, true}, rng);
  // Stage 2: expand x4, double width, downsample.
  stage2_.emplace<MBConv>(MBConvConfig{w, 2 * w, 4, 2, true, true}, rng);
  stage2_.emplace<MBConv>(MBConvConfig{2 * w, 2 * w, 4, 1, true, true}, rng);
  // Stage 3: expand x4, double width, downsample.
  stage3_.emplace<MBConv>(MBConvConfig{2 * w, 4 * w, 4, 2, true, true}, rng);
  stage3_.emplace<MBConv>(MBConvConfig{4 * w, 4 * w, 4, 1, true, true}, rng);

  register_module("stage1", stage1_);
  register_module("stage2", stage2_);
  register_module("stage3", stage3_);
  register_module("head_conv", head_conv_);
  register_module("head_bn", head_bn_);
  register_module("head", head_);
}

Classifier::StagedOutput EfficientNetLite::forward_with_features(
    const ag::Var& x) {
  StagedOutput out;
  ag::Var h = ag::hardswish(stem_bn_.forward(stem_.forward(x)));
  h = stage1_.forward(h);
  out.stage_features.push_back(h);
  h = stage2_.forward(h);
  out.stage_features.push_back(h);
  h = stage3_.forward(h);
  out.stage_features.push_back(h);
  h = ag::hardswish(head_bn_.forward(head_conv_.forward(h)));
  h = ag::global_avgpool(h);
  out.logits = head_.forward(h);
  return out;
}

}  // namespace bd::models
