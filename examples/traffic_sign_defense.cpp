// Traffic-sign scenario (the paper's motivating application, Sec. I):
// a driver-assistance vendor outsources training of a 43-class sign
// classifier; the returned MobileNet-style model carries a blended
// backdoor that steers any triggered sign to class 0 ("speed limit").
// The vendor has only a handful of verified sign photos per class.
//
//   1. Simulate the outsourced (poisoned) training on synthetic GTSRB.
//   2. Audit the model: clean accuracy looks fine, but triggered signs
//      are misrouted - demonstrated per true class.
//   3. Apply the gradient-based unlearning defense with SPC=10.
//   4. Re-audit and print the per-class recovery.
#include <cstdio>
#include <vector>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/factory.h"
#include "util/env.h"

int main() {
  using namespace bd;
  Rng rng(2024);

  data::SynthConfig cfg;
  cfg.height = cfg.width = scaled<std::int64_t>(12, 20);
  cfg.train_per_class = scaled<std::int64_t>(40, 140);
  cfg.test_per_class = scaled<std::int64_t>(8, 25);
  const data::TrainTest gtsrb = data::make_synth_gtsrb(cfg, rng);
  std::printf("Synthetic GTSRB: %zu training signs, %zu test signs, "
              "%lld classes\n",
              gtsrb.train.size(), gtsrb.test.size(),
              static_cast<long long>(gtsrb.train.num_classes()));

  // --- 1. "Outsourced" training comes back poisoned. -----------------------
  attack::BlendedTrigger trigger(gtsrb.train.image_shape());
  attack::PoisonConfig poison_cfg;  // 10%, all-to-one, target 0
  const auto poisoned =
      attack::poison_training_set(gtsrb.train, trigger, poison_cfg, rng);

  models::ModelSpec spec;
  spec.arch = "mobilenet";
  spec.num_classes = gtsrb.train.num_classes();
  spec.base_width = scaled<std::int64_t>(8, 16);
  auto model = models::make_model(spec, rng);

  eval::TrainConfig train_cfg;
  train_cfg.epochs = scaled<std::int64_t>(4, 8);
  train_cfg.lr_decay = 0.8f;
  std::printf("Outsourced training (MobileNetV3-style, %lld params)...\n",
              static_cast<long long>(model->parameter_count()));
  eval::train_classifier(*model, poisoned, train_cfg, rng);

  // --- 2. Audit. ------------------------------------------------------------
  const auto triggered = attack::make_triggered_test_sets(
      gtsrb.test, trigger, poison_cfg.target_class);
  const auto before =
      eval::evaluate_backdoor(*model, gtsrb.test, triggered.asr, triggered.ra);
  std::printf("\nAudit before defense:\n");
  std::printf("  clean accuracy          : %6.2f%%\n", before.acc);
  std::printf("  triggered -> class 0    : %6.2f%%  (attack success)\n",
              before.asr);
  std::printf("  triggered -> true class : %6.2f%%  (recovery)\n", before.ra);

  // --- 3. Defend with 10 verified photos per class. -------------------------
  const std::int64_t spc = 10;
  const auto spc_set = gtsrb.train.sample_per_class(spc, rng);
  const auto ctx = defense::make_defense_context(spc_set, trigger, spec, rng);
  core::GradPruneConfig dcfg;
  dcfg.max_prune_rounds = scaled<std::int64_t>(40, 150);
  dcfg.finetune_max_epochs = scaled<std::int64_t>(15, 50);
  core::GradPruneDefense defense(dcfg);
  std::printf("\nDefending with %lld verified photos per class...\n",
              static_cast<long long>(spc));
  const auto info = defense.apply(*model, ctx);
  std::printf("  pruned %lld filters, %lld fine-tune epochs (%.1fs)\n",
              static_cast<long long>(info.pruned_units),
              static_cast<long long>(info.finetune_epochs), info.seconds);

  // --- 4. Re-audit. ----------------------------------------------------------
  const auto after =
      eval::evaluate_backdoor(*model, gtsrb.test, triggered.asr, triggered.ra);
  std::printf("\nAudit after defense:\n");
  std::printf("  clean accuracy          : %6.2f%%  (was %.2f%%)\n",
              after.acc, before.acc);
  std::printf("  triggered -> class 0    : %6.2f%%  (was %.2f%%)\n",
              after.asr, before.asr);
  std::printf("  triggered -> true class : %6.2f%%  (was %.2f%%)\n",
              after.ra, before.ra);
  return 0;
}
