// Oracle-free defense pipeline (the paper's stated future work).
//
// The paper assumes the defender can synthesize backdoor inputs
// (Sec. III-C); its conclusion highlights "eliminating the need for
// synthesizing backdoor data" as the next step. This example closes the
// loop with Neural-Cleanse-style trigger inversion:
//
//   1. Train a BadNets-backdoored model (defender does NOT know trigger
//      or target class).
//   2. Scan all classes by trigger inversion; detect the target class as
//      the mask-L1 outlier.
//   3. Rebuild the defender's backdoor set with the INVERTED trigger.
//   4. Run the gradient-based unlearning prune + fine-tune.
//   5. Report ACC/ASR/RA against the attacker's REAL trigger.
#include <cstdio>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "defense/inversion.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/factory.h"
#include "util/env.h"

int main() {
  using namespace bd;
  Rng rng(31337);

  data::SynthConfig cfg;
  cfg.height = cfg.width = 12;
  cfg.train_per_class = scaled<std::int64_t>(90, 260);
  cfg.test_per_class = 25;
  const data::TrainTest data = data::make_synth_cifar(cfg, rng);

  // --- 1. The attacker's model; target class 3 this time. ------------------
  attack::BadNetsTrigger real_trigger;
  attack::PoisonConfig poison_cfg;
  poison_cfg.target_class = 3;
  const auto poisoned =
      attack::poison_training_set(data.train, real_trigger, poison_cfg, rng);
  models::ModelSpec spec{"vgg", 10, 3, 8};
  auto model = models::make_model(spec, rng);
  eval::TrainConfig tc;
  tc.epochs = scaled<std::int64_t>(4, 8);
  std::printf("Training backdoored model (target class hidden from "
              "defender)...\n");
  eval::train_classifier(*model, poisoned, tc, rng);

  const auto triggered = attack::make_triggered_test_sets(
      data.test, real_trigger, poison_cfg.target_class);
  const auto before =
      eval::evaluate_backdoor(*model, data.test, triggered.asr, triggered.ra);
  std::printf("backdoored: ACC=%.1f%% ASR=%.1f%% RA=%.1f%%\n\n", before.acc,
              before.asr, before.ra);

  // --- 2. Scan: which class is backdoored? ----------------------------------
  const auto spc_set = data.train.sample_per_class(10, rng);
  defense::InversionConfig inv_cfg;
  inv_cfg.iterations = scaled<std::int64_t>(60, 150);
  std::printf("Scanning all 10 classes by trigger inversion...\n");
  const auto scan =
      defense::scan_for_backdoor_target(*model, spc_set, inv_cfg, rng);
  for (std::size_t t = 0; t < scan.per_class.size(); ++t) {
    std::printf("  class %zu: inverted-mask L1 = %6.2f%s\n", t,
                scan.per_class[t].mask_l1,
                static_cast<std::int64_t>(t) == scan.detected_target
                    ? "   <-- anomaly"
                    : "");
  }
  // Natural small-perturbation classes can tie with the true target at
  // this scale, so defend against the top-2 ranked suspects.
  const auto ranked = scan.ranked_candidates();
  std::printf("top suspects: class %lld, class %lld (true target: %lld)\n\n",
              static_cast<long long>(ranked[0]),
              static_cast<long long>(ranked[1]),
              static_cast<long long>(poison_cfg.target_class));

  // --- 3+4. Defend with each suspect's inverted trigger. --------------------
  for (std::size_t k = 0; k < 2; ++k) {
    const auto suspect = static_cast<std::size_t>(ranked[k]);
    const defense::InvertedTriggerApplier inverted(scan.per_class[suspect]);
    const auto ctx =
        defense::make_defense_context(spc_set, inverted, spec, rng);
    core::GradPruneConfig dcfg;
    dcfg.max_prune_rounds = scaled<std::int64_t>(40, 150);
    dcfg.finetune_max_epochs = scaled<std::int64_t>(15, 50);
    core::GradPruneDefense defense(dcfg);
    std::printf("Unlearning suspect class %zu with its INVERTED trigger...\n",
                suspect);
    const auto info = defense.apply(*model, ctx);
    std::printf("  pruned %lld filters, %lld fine-tune epochs\n",
                static_cast<long long>(info.pruned_units),
                static_cast<long long>(info.finetune_epochs));
  }

  // --- 5. Evaluate against the REAL trigger. ---------------------------------
  const auto after =
      eval::evaluate_backdoor(*model, data.test, triggered.asr, triggered.ra);
  std::printf("\nagainst the attacker's real trigger:\n");
  std::printf("  ACC %.1f%% -> %.1f%%\n", before.acc, after.acc);
  std::printf("  ASR %.1f%% -> %.1f%%\n", before.asr, after.asr);
  std::printf("  RA  %.1f%% -> %.1f%%\n", before.ra, after.ra);
  return 0;
}
