// Ablation A: pruning versus gradient descent.
//
// Sec. IV-A argues that the parameters with large unlearning-loss gradient
// are better PRUNED than adjusted by gradient descent on limited data.
// This bench compares, on the same backdoored models:
//   descend-only : fine-tune on clean + relabelled backdoor data (the
//                  gradient-descent alternative; no pruning)
//   prune-only   : gradient-based pruning without the recovery fine-tune
//   prune+ft     : the full proposed approach
#include <cstdio>

#include "core/grad_prune.h"
#include "eval/runner.h"
#include "util/env.h"
#include "util/table.h"

int main() {
  using namespace bd;
  const eval::ExperimentScale scale = eval::default_scale("cifar");
  const std::uint64_t seed = base_seed();

  std::printf("== Ablation A: prune vs gradient-descend (unlearning) ==\n");
  std::printf("mode=%s trials=%d\n\n", full_mode() ? "full" : "quick",
              scale.trials);

  struct Variant {
    const char* label;
    bool prune;
    bool finetune;
  };
  const Variant variants[] = {
      {"descend-only", false, true},
      {"prune-only", true, false},
      {"prune+ft (ours)", true, true},
  };

  TextTable table({"Attack", "SPC", "Variant", "ACC", "ASR", "RA"});
  for (const char* attack : {"badnet", "blended"}) {
    Rng seeder(seed ^ std::hash<std::string>{}(attack));
    const auto bd_model = eval::prepare_backdoored_model(
        "cifar", "preactresnet", attack, scale, seeder.next_u64());

    char buf[3][32];
    std::snprintf(buf[0], 32, "%.2f", bd_model.baseline.acc);
    std::snprintf(buf[1], 32, "%.2f", bd_model.baseline.asr);
    std::snprintf(buf[2], 32, "%.2f", bd_model.baseline.ra);
    table.add_row({attack, "-", "Baseline", buf[0], buf[1], buf[2]});

    for (const auto spc : scale.spc_settings) {
      for (const auto& variant : variants) {
        const eval::SettingResult s = eval::run_setting(
            bd_model, variant.label,
            [&] {
              core::GradPruneConfig cfg;
              cfg.prune = variant.prune;
              cfg.finetune = variant.finetune;
              cfg.max_prune_rounds = scale.prune_max_rounds;
              cfg.finetune_max_epochs = scale.defense_max_epochs;
              return std::make_unique<core::GradPruneDefense>(cfg);
            },
            spc, scale.trials, seeder.next_u64());
        table.add_row(eval::metric_row(
            {attack, std::to_string(spc), variant.label}, s));
      }
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
