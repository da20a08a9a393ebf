#include "defense/fine_pruning.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "eval/metrics.h"
#include "eval/trainer.h"
#include "nn/layers.h"
#include "obs/obs.h"
#include "robust/cancel.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace bd::defense {

namespace {

/// Mean activation per channel of the deepest stage feature over `data`.
std::vector<double> channel_activations(models::Classifier& model,
                                        const data::ImageDataset& data,
                                        std::int64_t batch_size) {
  model.set_training(false);
  ag::NoGradGuard no_grad;
  std::vector<double> sums;
  std::int64_t seen = 0;

  Rng dummy(0);
  data::DataLoader loader(data, batch_size, dummy, /*shuffle=*/false);
  data::Batch batch;
  while (loader.next(batch)) {
    const auto staged = model.forward_with_features(ag::Var(batch.images));
    const Tensor& f = staged.stage_features.back().value();  // (N,C,H,W)
    const std::int64_t n = f.size(0), c = f.size(1);
    const std::int64_t hw = f.size(2) * f.size(3);
    if (sums.empty()) sums.assign(static_cast<std::size_t>(c), 0.0);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float* plane = f.data() + (i * c + ch) * hw;
        double s = 0.0;
        for (std::int64_t j = 0; j < hw; ++j) s += std::fabs(plane[j]);
        sums[static_cast<std::size_t>(ch)] += s / static_cast<double>(hw);
      }
    }
    seen += n;
  }
  for (auto& s : sums) s /= static_cast<double>(seen);
  return sums;
}

/// The last standard conv layer whose output width matches `channels`
/// (the layer producing the deepest feature map), or nullptr.
nn::Conv2d* matching_last_conv(models::Classifier& model,
                               std::int64_t channels) {
  auto convs = model.modules_of_type<nn::Conv2d>();
  for (auto it = convs.rbegin(); it != convs.rend(); ++it) {
    if ((*it)->out_channels() == channels) return *it;
  }
  return nullptr;
}

}  // namespace

DefenseResult FinePruningDefense::apply(models::Classifier& model,
                                        const DefenseContext& context) {
  BD_OBS_SPAN("defense.fine_pruning");
  Stopwatch watch;
  DefenseResult out;
  out.defense_name = name();

  std::vector<double> activations;
  {
    BD_OBS_SPAN("fine_pruning.activations");
    activations =
        channel_activations(model, context.clean_train, config_.batch_size);
  }
  nn::Conv2d* conv = matching_last_conv(
      model, static_cast<std::int64_t>(activations.size()));

  if (conv != nullptr) {
    BD_OBS_SPAN("fine_pruning.prune");
    // Ascending activation order: prune the most dormant filters first.
    std::vector<std::size_t> order(activations.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return activations[a] < activations[b];
    });

    const double initial_acc = eval::accuracy(model, context.clean_val);
    const double floor = initial_acc - config_.max_accuracy_drop;
    const auto max_prune = static_cast<std::size_t>(
        static_cast<double>(order.size()) * config_.max_prune_fraction);

    auto pre_prune_state = model.state_dict();
    for (std::size_t k = 0; k < max_prune; ++k) {
      robust::poll_cancellation("fine_pruning.prune");
      pre_prune_state = model.state_dict();
      conv->prune_filter(static_cast<std::int64_t>(order[k]));
      const double acc = eval::accuracy(model, context.clean_val);
      if (acc < floor) {
        // Roll back the prune that crossed the floor.
        conv->unprune_filter(static_cast<std::int64_t>(order[k]));
        model.load_state_dict(pre_prune_state);
        break;
      }
      ++out.pruned_units;
    }
    BD_LOG(Debug) << "fine-pruning removed " << out.pruned_units
                  << " filters from the last conv layer";
  } else {
    BD_LOG(Warn) << "fine-pruning: no conv layer matches the final feature "
                    "width; skipping prune stage";
  }

  // Fixed-budget recovery fine-tune (BackdoorBench-style), re-asserting the
  // prune mask afterwards.
  BD_OBS_SPAN("fine_pruning.finetune");
  eval::TrainConfig ft;
  ft.epochs = config_.finetune_max_epochs;
  ft.batch_size = config_.batch_size;
  ft.lr = config_.finetune_lr;
  ft.momentum = 0.9f;
  ft.weight_decay = 0.0f;
  const eval::TrainResult train =
      eval::train_classifier(model, context.clean_train, ft, context.rng_ref());
  if (conv != nullptr) conv->enforce_filter_masks();

  out.finetune_epochs = train.epochs_run;
  out.recoveries = train.guard.recoveries;
  out.seconds = watch.seconds();
  return out;
}

}  // namespace bd::defense
