// The one SGD training loop, shared by the attack pipeline (training the
// backdoored model) and every defense that updates the model: the paper's
// fine-tune stage and the FT, FP, NAD and FT-SAM baselines.
//
// The loop runs under a bd::robust::TrainGuard: a non-finite or exploding
// batch loss (or non-finite gradient) rolls the model back to the last
// good epoch snapshot, backs off the learning rate, and retries the epoch
// within a bounded budget. Recovery history is returned in TrainResult;
// see robust/train_guard.h for the policy.
#pragma once

#include <functional>

#include "autograd/variable.h"
#include "data/dataset.h"
#include "models/classifier.h"
#include "robust/train_guard.h"
#include "util/rng.h"

namespace bd::eval {

struct TrainConfig {
  /// Epoch budget (the maximum when early-stopping on a validation set).
  std::int64_t epochs = 5;
  std::int64_t batch_size = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
  /// Multiply lr by this factor after each epoch (1 = constant).
  float lr_decay = 1.0f;
  /// With a validation set: stop when its loss has not improved for this
  /// many epochs (the paper's P_t for the fine-tuning stage).
  std::int64_t patience = 5;
  /// Invoked after every optimizer step (e.g. to re-apply prune masks).
  std::function<void()> post_step;
  /// Sharpness-aware minimization radius (FT-SAM); 0 = plain SGD.
  float sam_rho = 0.0f;
  /// Per-batch training loss; unset = cross-entropy of the logits.
  std::function<ag::Var(models::Classifier&, const data::Batch&)> batch_loss;
  /// Divergence detection / rollback policy (enabled by default).
  robust::TrainGuardConfig guard;
  bool verbose = false;
};

struct TrainResult {
  /// Mean loss of the last completed epoch.
  double final_loss = 0.0;
  /// Epochs completed (rolled-back attempts not counted).
  std::int64_t epochs_run = 0;
  /// Lowest validation loss seen, including before training (0 without a
  /// validation set).
  double best_val_loss = 0.0;
  /// Divergence recoveries performed during training.
  robust::GuardReport guard;
};

/// SGD training on `train`; the model is left in eval mode. With `val`,
/// early-stops on its loss after `config.patience` epochs without
/// improvement and restores the best-validation-loss weights.
TrainResult train_classifier(models::Classifier& model,
                             const data::ImageDataset& train,
                             const TrainConfig& config, Rng& rng,
                             const data::ImageDataset* val = nullptr);

/// Merges two datasets (shapes and class counts must match).
data::ImageDataset concat(const data::ImageDataset& a,
                          const data::ImageDataset& b);

}  // namespace bd::eval
