#include "models/vgg.h"

namespace bd::models {

namespace {
constexpr std::int64_t kConvsPerStage = 2;

void add_stage(nn::Sequential& stage, std::int64_t in_ch, std::int64_t out_ch,
               Rng& rng) {
  std::int64_t ch = in_ch;
  for (std::int64_t i = 0; i < kConvsPerStage; ++i) {
    stage.emplace<nn::Conv2d>(ch, out_ch, 3, 1, 1, /*bias=*/false, rng);
    stage.emplace<nn::BatchNorm2d>(out_ch);
    stage.emplace<nn::ReLU>();
    ch = out_ch;
  }
  stage.emplace<nn::MaxPool2d>(Pool2dSpec{2, 2, 0});
}
}  // namespace

VggBn::VggBn(const ModelSpec& spec, Rng& rng)
    : num_classes_(spec.num_classes),
      head_(spec.base_width * 4, spec.num_classes, rng) {
  const std::int64_t w = spec.base_width;
  add_stage(stage1_, spec.in_channels, w, rng);
  add_stage(stage2_, w, 2 * w, rng);
  add_stage(stage3_, 2 * w, 4 * w, rng);
  register_module("stage1", stage1_);
  register_module("stage2", stage2_);
  register_module("stage3", stage3_);
  register_module("head", head_);
}

Classifier::StagedOutput VggBn::forward_with_features(const ag::Var& x) {
  StagedOutput out;
  ag::Var h = stage1_.forward(x);
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
