// Ablation B: sensitivity to the stopping-rule parameters.
//
// The paper advertises "few intuitive hyperparameters": the accuracy
// threshold alpha and the pruning patience P_p. This bench sweeps both on
// a BadNets-backdoored PreActResNet and reports ACC/ASR/RA plus how many
// filters each setting pruned - demonstrating the claimed insensitivity.
#include <cstdio>

#include "core/grad_prune.h"
#include "eval/runner.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace bd;
  const eval::ExperimentScale scale = eval::default_scale("cifar");
  const std::uint64_t seed = base_seed();

  std::printf("== Ablation B: stopping-rule sensitivity (alpha, P_p) ==\n");
  std::printf("mode=%s trials=%d\n\n", full_mode() ? "full" : "quick",
              scale.trials);

  Rng seeder(seed ^ 0xB10C5EEDULL);
  const auto bd_model = eval::prepare_backdoored_model(
      "cifar", "preactresnet", "badnet", scale, seeder.next_u64());

  const std::int64_t spc = scale.spc_settings.back();
  TextTable table({"alpha", "P_p", "ACC", "ASR", "RA", "pruned"});

  for (const double alpha : {0.05, 0.10, 0.20}) {
    for (const std::int64_t pp : {5LL, 10LL, 20LL}) {
      char alpha_buf[16];
      std::snprintf(alpha_buf, sizeof(alpha_buf), "%.2f", alpha);
      const eval::SettingResult s = eval::run_setting(
          bd_model,
          std::string("alpha=") + alpha_buf + " P_p=" + std::to_string(pp),
          [&] {
            core::GradPruneConfig cfg;
            cfg.alpha = alpha;
            cfg.prune_patience = pp;
            cfg.max_prune_rounds = scale.prune_max_rounds;
            cfg.finetune_max_epochs = scale.defense_max_epochs;
            return std::make_unique<core::GradPruneDefense>(cfg);
          },
          spc, scale.trials, seeder.next_u64());
      auto row = eval::metric_row({alpha_buf, std::to_string(pp)}, s);
      row.push_back(mean_std_string(
          std::vector<double>(s.pruned.begin(), s.pruned.end()), 1));
      table.add_row(std::move(row));
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
