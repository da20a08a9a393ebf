// Ablation B: sensitivity to the stopping-rule parameters.
//
// The paper advertises "few intuitive hyperparameters": the accuracy
// threshold alpha and the pruning patience P_p. This bench sweeps both on
// Table I's BadNets-backdoored PreActResNet at the largest SPC and reports
// ACC/ASR/RA plus how many filters each setting pruned - demonstrating the
// claimed insensitivity.
#include <cstdio>

#include "eval/table_bench.h"

int main() {
  bd::eval::TableSpec spec;
  spec.title = "Ablation B: stopping-rule sensitivity (alpha, P_p)";
  spec.dataset = "cifar";
  spec.arch = "preactresnet";
  spec.attacks = {"badnet"};
  for (const double alpha : {0.05, 0.10, 0.20}) {
    for (const long long pp : {5, 10, 20}) {
      char label[32];
      std::snprintf(label, sizeof(label), "alpha=%.2f P_p=%lld", alpha, pp);
      spec.defenses.emplace_back(
          label, [=](const bd::eval::ExperimentScale& scale) {
            auto config = bd::eval::gradprune_config(scale);
            config.alpha = alpha;
            config.prune_patience = pp;
            return std::make_unique<bd::core::GradPruneDefense>(config);
          });
    }
  }
  bd::eval::ExperimentScale scale = bd::eval::default_scale(spec.dataset);
  scale.spc_settings = {scale.spc_settings.back()};
  spec.scale = scale;
  bd::eval::run_table(spec);
  return 0;
}
