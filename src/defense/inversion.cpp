#include "defense/inversion.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "autograd/ops.h"
#include "obs/obs.h"
#include "optim/optim.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace bd::defense {

namespace {

/// Blends a triggered batch: (1 - m) .* x + m .* p, all autograd-aware.
/// x is (N,C,H,W); mask is (1,1,H,W); pattern is (1,C,H,W).
ag::Var blend(const ag::Var& x, const ag::Var& mask, const ag::Var& pattern) {
  const ag::Var keep = ag::add_scalar(ag::neg(mask), 1.0f);  // 1 - m
  return ag::add(ag::mul(keep, x), ag::mul(mask, pattern));
}

}  // namespace

InvertedTrigger invert_trigger(models::Classifier& model,
                               const data::ImageDataset& clean,
                               std::int64_t target_class,
                               const InversionConfig& config, Rng& rng) {
  if (clean.empty()) {
    throw std::invalid_argument("invert_trigger: empty clean set");
  }
  BD_OBS_SPAN_ARG("inversion.invert_trigger", target_class);
  const Shape img = clean.image_shape();  // (C,H,W)
  const std::int64_t c = img[0], h = img[1], w = img[2];

  model.set_training(false);

  // Raw (pre-sigmoid) variables; start near m ~ 0.1, p ~ 0.5.
  ag::Var raw_mask(Tensor::full({1, 1, h, w}, -2.2f), /*requires_grad=*/true);
  ag::Var raw_pattern(Tensor::zeros({1, c, h, w}), /*requires_grad=*/true);
  for (std::int64_t i = 0; i < raw_pattern.value().numel(); ++i) {
    raw_pattern.mutable_value()[i] =
        static_cast<float>(rng.normal(0.0, 0.1));
  }

  optim::AdamOptions opts;
  opts.lr = config.lr;
  optim::Adam adam({&raw_mask, &raw_pattern}, opts);

  data::DataLoader loader(clean, config.batch_size, rng);
  data::Batch batch;
  double final_loss = 0.0;

  // Adam reads only the trigger's gradients; the model's weights get none.
  const nn::FrozenParameters frozen(model);
  for (std::int64_t it = 0; it < config.iterations; ++it) {
    if (!loader.next(batch)) {
      loader.reset();
      loader.next(batch);
    }
    const std::vector<std::int64_t> targets(
        static_cast<std::size_t>(batch.size()), target_class);

    adam.zero_grad();
    const ag::Var mask = ag::sigmoid(raw_mask);
    const ag::Var pattern = ag::sigmoid(raw_pattern);
    const ag::Var triggered = blend(ag::Var(batch.images), mask, pattern);
    const ag::Var ce =
        ag::cross_entropy(model.forward(triggered), targets);
    ag::Var loss = ag::add(
        ce, ag::mul_scalar(ag::sum_all(mask), config.lambda_l1));
    loss.backward();
    adam.step();
    final_loss = loss.value()[0];
  }

  InvertedTrigger out;
  out.mask = bd::sigmoid(raw_mask.value()).reshape({1, h, w});
  out.pattern = bd::sigmoid(raw_pattern.value()).reshape({c, h, w});
  out.mask_l1 = l1_norm(out.mask);
  out.final_loss = final_loss;
  out.target_class = target_class;
  return out;
}

InvertedTriggerApplier::InvertedTriggerApplier(InvertedTrigger trigger)
    : trigger_(std::move(trigger)) {
  if (!trigger_.mask.defined() || !trigger_.pattern.defined()) {
    throw std::invalid_argument("InvertedTriggerApplier: undefined trigger");
  }
}

Tensor InvertedTriggerApplier::apply(const Tensor& image) const {
  if (image.shape() != trigger_.pattern.shape()) {
    throw std::invalid_argument("InvertedTriggerApplier: shape mismatch");
  }
  const std::int64_t c = image.size(0);
  const std::int64_t hw = image.size(1) * image.size(2);
  Tensor out(image.shape());
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t i = 0; i < hw; ++i) {
      const float m = trigger_.mask[i];
      out[ch * hw + i] = (1.0f - m) * image[ch * hw + i] +
                         m * trigger_.pattern[ch * hw + i];
    }
  }
  return out;
}

std::vector<std::int64_t> TargetScanResult::ranked_candidates() const {
  std::vector<std::int64_t> order(per_class.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }
  std::sort(order.begin(), order.end(), [this](std::int64_t a, std::int64_t b) {
    return per_class[static_cast<std::size_t>(a)].mask_l1 <
           per_class[static_cast<std::size_t>(b)].mask_l1;
  });
  return order;
}

TargetScanResult scan_for_backdoor_target(models::Classifier& model,
                                          const data::ImageDataset& clean,
                                          const InversionConfig& config,
                                          Rng& rng) {
  BD_OBS_SPAN("defense.inversion");
  TargetScanResult result;
  const std::int64_t classes = clean.num_classes();
  result.per_class.reserve(static_cast<std::size_t>(classes));
  for (std::int64_t t = 0; t < classes; ++t) {
    result.per_class.push_back(invert_trigger(model, clean, t, config, rng));
    BD_LOG(Debug) << "inversion class " << t
                  << " mask_l1=" << result.per_class.back().mask_l1;
  }

  // Median absolute deviation outlier test on mask L1 norms (small = easy
  // class flip = suspicious, as in Neural Cleanse).
  std::vector<double> l1s;
  for (const auto& trig : result.per_class) l1s.push_back(trig.mask_l1);
  std::vector<double> sorted = l1s;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<double> dev;
  for (const double v : l1s) dev.push_back(std::fabs(v - median));
  std::vector<double> dev_sorted = dev;
  std::sort(dev_sorted.begin(), dev_sorted.end());
  const double mad = dev_sorted[dev_sorted.size() / 2];
  if (mad <= 1e-12) return result;

  double best_index = 0.0;
  std::int64_t best_class = -1;
  for (std::int64_t t = 0; t < classes; ++t) {
    const auto i = static_cast<std::size_t>(t);
    if (l1s[i] >= median) continue;  // only abnormally SMALL triggers
    const double anomaly = dev[i] / (1.4826 * mad);
    if (anomaly > best_index) {
      best_index = anomaly;
      best_class = t;
    }
  }
  result.anomaly_index = best_index;
  if (best_index > 2.0) result.detected_target = best_class;
  return result;
}

}  // namespace bd::defense
