// Quickstart: the whole pipeline in one file.
//
//   1. Build a synthetic 10-class dataset.
//   2. Poison 10% of it with a BadNets patch trigger (all-to-one, target 0)
//      and train a small PreActResNet on it.
//   3. Show the backdoor: high clean accuracy AND high attack success rate.
//   4. Run the paper's defense (gradient-based unlearning pruning +
//      fine-tuning) with only 10 clean samples per class.
//   5. Show the repaired model: ASR collapses, ACC survives, RA recovers.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/factory.h"
#include "nn/summary.h"
#include "util/env.h"

int main() {
  using namespace bd;
  Rng rng(7);

  // 1. Data: a learnable 10-class image task (CIFAR-10 stand-in).
  data::SynthConfig data_cfg;
  data_cfg.height = data_cfg.width = 12;
  data_cfg.train_per_class = scaled<std::int64_t>(90, 260);
  data_cfg.test_per_class = 25;
  const data::TrainTest data = data::make_synth_cifar(data_cfg, rng);

  // 2. Attack: BadNets patch, 10% poisoning, all-to-one target class 0.
  attack::BadNetsTrigger trigger;
  const attack::PoisonConfig poison_cfg;
  const data::ImageDataset poisoned =
      attack::poison_training_set(data.train, trigger, poison_cfg, rng);

  models::ModelSpec spec;
  spec.arch = "preactresnet";
  spec.num_classes = 10;
  spec.base_width = 8;
  auto model = models::make_model(spec, rng);

  eval::TrainConfig train_cfg;
  train_cfg.epochs = scaled<std::int64_t>(4, 8);
  train_cfg.lr_decay = 0.8f;
  std::printf("Training a backdoored PreActResNet (%lld params)...\n",
              static_cast<long long>(model->parameter_count()));
  eval::train_classifier(*model, poisoned, train_cfg, rng);

  // 3. Measure the backdoor.
  const auto triggered = attack::make_triggered_test_sets(
      data.test, trigger, poison_cfg.target_class);
  const auto before =
      eval::evaluate_backdoor(*model, data.test, triggered.asr, triggered.ra);
  std::printf("Backdoored model:  ACC=%.1f%%  ASR=%.1f%%  RA=%.1f%%\n",
              before.acc, before.asr, before.ra);

  // 4. Defend with 10 clean samples per class (SPC=10).
  const auto spc_set = data.train.sample_per_class(10, rng);
  const auto ctx = defense::make_defense_context(spc_set, trigger, spec, rng);
  core::GradPruneDefense defense;
  std::printf("Running gradient-based unlearning pruning (SPC=10)...\n");
  const auto info = defense.apply(*model, ctx);
  std::printf("  pruned %lld conv filters, fine-tuned %lld epochs (%.1fs)\n",
              static_cast<long long>(info.pruned_units),
              static_cast<long long>(info.finetune_epochs), info.seconds);

  // 5. Measure again.
  const auto after =
      eval::evaluate_backdoor(*model, data.test, triggered.asr, triggered.ra);
  std::printf("Defended model:    ACC=%.1f%%  ASR=%.1f%%  RA=%.1f%%\n",
              after.acc, after.asr, after.ra);
  std::printf("Backdoor mitigation: ASR %.1f%% -> %.1f%%\n", before.asr,
              after.asr);
  std::printf("\nRepaired model structure (pruned filters annotated):\n%s",
              nn::summarize(*model, "preactresnet").c_str());
  return 0;
}
