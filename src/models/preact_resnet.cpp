#include "models/preact_resnet.h"

namespace bd::models {

PreActBlock::PreActBlock(std::int64_t in_channels, std::int64_t out_channels,
                         std::int64_t stride, Rng& rng)
    : bn1_(in_channels),
      conv1_(in_channels, out_channels, /*kernel=*/3, stride, /*padding=*/1,
             /*bias=*/false, rng),
      bn2_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, /*bias=*/false, rng) {
  register_module("bn1", bn1_);
  register_module("conv1", conv1_);
  register_module("bn2", bn2_);
  register_module("conv2", conv2_);
  if (stride != 1 || in_channels != out_channels) {
    shortcut_ = std::make_unique<nn::Conv2d>(in_channels, out_channels, 1,
                                             stride, 0, /*bias=*/false, rng);
    register_module("shortcut", *shortcut_);
  }
}

ag::Var PreActBlock::forward(const ag::Var& x) {
  ag::Var pre = ag::relu(bn1_.forward(x));
  // The shortcut branches off the pre-activation when it exists (the
  // standard pre-act ResNet wiring).
  ag::Var identity = shortcut_ ? shortcut_->forward(pre) : x;
  ag::Var out = conv1_.forward(pre);
  out = conv2_.forward(ag::relu(bn2_.forward(out)));
  return ag::add(out, identity);
}

PreActResNet::PreActResNet(const ModelSpec& spec, Rng& rng)
    : num_classes_(spec.num_classes),
      stem_(spec.in_channels, spec.base_width, 3, 1, 1, /*bias=*/false, rng),
      head_bn_(spec.base_width * 4),
      head_(spec.base_width * 4, spec.num_classes, rng) {
  register_module("stem", stem_);

  const std::int64_t w = spec.base_width;
  auto build_stage = [&](nn::Sequential& stage, std::int64_t in_ch,
                         std::int64_t out_ch, std::int64_t first_stride) {
    stage.emplace<PreActBlock>(in_ch, out_ch, first_stride, rng);
    stage.emplace<PreActBlock>(out_ch, out_ch, 1, rng);
  };
  build_stage(stage1_, w, w, 1);
  build_stage(stage2_, w, 2 * w, 2);
  build_stage(stage3_, 2 * w, 4 * w, 2);
  register_module("stage1", stage1_);
  register_module("stage2", stage2_);
  register_module("stage3", stage3_);
  register_module("head_bn", head_bn_);
  register_module("head", head_);
}

Classifier::StagedOutput PreActResNet::forward_with_features(
    const ag::Var& x) {
  StagedOutput out;
  ag::Var h = stem_.forward(x);
  h = stage1_.forward(h);
  out.stage_features.push_back(h);
  h = stage2_.forward(h);
  out.stage_features.push_back(h);
  h = stage3_.forward(h);
  out.stage_features.push_back(h);
  h = ag::relu(head_bn_.forward(h));
  h = ag::global_avgpool(h);
  out.logits = head_.forward(h);
  return out;
}

}  // namespace bd::models
