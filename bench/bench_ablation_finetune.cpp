// Ablation C: contribution of the Sec. IV-C fine-tuning stage, and of the
// backdoor data within it.
//
// Variants on the same pruned models:
//   no-ft          : pruning only
//   ft-clean       : fine-tune on clean data only (classic recovery)
//   ft-clean+bd    : the paper's stage - clean + relabelled backdoor data
// The paper's claim: fine-tuning with relabelled backdoor data both
// recovers ACC lost to pruning and removes backdoor remnants in unpruned
// (dense) layers, lifting RA.
#include <cstdio>
#include <utility>

#include "core/grad_prune.h"
#include "defense/defense.h"
#include "eval/runner.h"
#include "eval/trainer.h"
#include "util/env.h"
#include "util/table.h"

namespace {

/// Grad-Prune with its fine-tune stage trained on the clean samples only
/// (classic recovery, no relabelled backdoor data).
class CleanFinetuneDefense : public bd::defense::Defense {
 public:
  explicit CleanFinetuneDefense(bd::core::GradPruneConfig config)
      : config_(config) {}

  bd::defense::DefenseResult apply(
      bd::models::Classifier& model,
      const bd::defense::DefenseContext& ctx) override {
    bd::core::GradPruneConfig prune_only = config_;
    prune_only.finetune = false;
    auto result = bd::core::GradPruneDefense(prune_only).apply(model, ctx);

    auto convs = model.modules_of_type<bd::nn::Conv2d>();
    bd::eval::TrainConfig ft;
    ft.epochs = config_.finetune_max_epochs;
    ft.patience = config_.finetune_patience;
    ft.lr = config_.finetune_lr;
    ft.weight_decay = 0.0f;
    ft.post_step = [&convs] {
      for (auto* conv : convs) conv->enforce_filter_masks();
    };
    result.finetune_epochs =
        bd::eval::train_classifier(model, ctx.clean_train, ft, ctx.rng_ref(),
                                   &ctx.clean_val)
            .epochs_run;
    for (auto* conv : convs) conv->enforce_filter_masks();
    return result;
  }

  std::string name() const override { return "gradprune-ft-clean"; }

 private:
  bd::core::GradPruneConfig config_;
};

}  // namespace

int main() {
  using namespace bd;
  const eval::ExperimentScale scale = eval::default_scale("cifar");
  const std::uint64_t seed = base_seed();

  std::printf("== Ablation C: fine-tuning stage variants ==\n");
  std::printf("mode=%s trials=%d\n\n", full_mode() ? "full" : "quick",
              scale.trials);

  // "ours" is the registered defense; the other two vary its stage 2.
  core::GradPruneConfig config;
  config.max_prune_rounds = scale.prune_max_rounds;
  config.finetune_max_epochs = scale.defense_max_epochs;
  core::GradPruneConfig prune_only = config;
  prune_only.finetune = false;
  const std::pair<const char*, eval::DefenseFactory> variants[] = {
      {"no-ft",
       [&] { return std::make_unique<core::GradPruneDefense>(prune_only); }},
      {"ft-clean",
       [&] { return std::make_unique<CleanFinetuneDefense>(config); }},
      {"ft-clean+bd (ours)",
       [&] { return eval::make_defense("gradprune", scale); }},
  };

  TextTable table({"Attack", "SPC", "Variant", "ACC", "ASR", "RA"});
  for (const char* attack : {"badnet", "lf"}) {
    Rng seeder(seed ^ std::hash<std::string>{}(attack));
    const auto bd_model = eval::prepare_backdoored_model(
        "cifar", "preactresnet", attack, scale, seeder.next_u64());

    for (const auto spc : scale.spc_settings) {
      for (const auto& [label, factory] : variants) {
        const eval::SettingResult s = eval::run_setting(
            bd_model, label, factory, spc, scale.trials, seeder.next_u64());
        table.add_row(
            eval::metric_row({attack, std::to_string(spc), label}, s));
      }
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
