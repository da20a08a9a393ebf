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

#include "core/grad_prune.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/trainer.h"
#include "util/env.h"
#include "util/table.h"

namespace {

/// GradPrune with the fine-tune stage replaced by a configurable variant.
class FinetuneVariantDefense : public bd::defense::Defense {
 public:
  enum class Mode { kNone, kCleanOnly, kCleanPlusBackdoor };

  FinetuneVariantDefense(bd::core::GradPruneConfig config, Mode mode)
      : config_(config), mode_(mode) {}

  bd::defense::DefenseResult apply(
      bd::models::Classifier& model,
      const bd::defense::DefenseContext& ctx) override {
    config_.finetune = false;  // prune stage only
    bd::core::GradPruneDefense pruner(config_);
    auto result = pruner.apply(model, ctx);

    if (mode_ != Mode::kNone) {
      auto convs = model.modules_of_type<bd::nn::Conv2d>();
      bd::eval::TrainConfig ft;
      ft.epochs = config_.finetune_max_epochs;
      ft.patience = config_.finetune_patience;
      ft.lr = config_.finetune_lr;
      ft.weight_decay = 0.0f;
      ft.post_step = [&convs] {
        for (auto* conv : convs) conv->enforce_filter_masks();
      };
      const auto train =
          mode_ == Mode::kCleanOnly
              ? ctx.clean_train
              : bd::eval::concat(ctx.clean_train, ctx.backdoor_train);
      const auto val = mode_ == Mode::kCleanOnly
                           ? ctx.clean_val
                           : bd::eval::concat(ctx.clean_val, ctx.backdoor_val);
      const auto ft_result =
          bd::eval::train_classifier(model, train, ft, ctx.rng_ref(), &val);
      result.finetune_epochs = ft_result.epochs_run;
      for (auto* conv : convs) conv->enforce_filter_masks();
    }
    return result;
  }

  std::string name() const override { return "gradprune-ft-ablation"; }

 private:
  bd::core::GradPruneConfig config_;
  Mode mode_;
};

}  // namespace

int main() {
  using namespace bd;
  const eval::ExperimentScale scale = eval::default_scale("cifar");
  const std::uint64_t seed = base_seed();

  std::printf("== Ablation C: fine-tuning stage variants ==\n");
  std::printf("mode=%s trials=%d\n\n", full_mode() ? "full" : "quick",
              scale.trials);

  struct Variant {
    const char* label;
    FinetuneVariantDefense::Mode mode;
  };
  const Variant variants[] = {
      {"no-ft", FinetuneVariantDefense::Mode::kNone},
      {"ft-clean", FinetuneVariantDefense::Mode::kCleanOnly},
      {"ft-clean+bd (ours)", FinetuneVariantDefense::Mode::kCleanPlusBackdoor},
  };

  TextTable table({"Attack", "SPC", "Variant", "ACC", "ASR", "RA"});
  for (const char* attack : {"badnet", "lf"}) {
    Rng seeder(seed ^ std::hash<std::string>{}(attack));
    const auto bd_model = eval::prepare_backdoored_model(
        "cifar", "preactresnet", attack, scale, seeder.next_u64());

    for (const auto spc : scale.spc_settings) {
      for (const auto& variant : variants) {
        const eval::SettingResult s = eval::run_setting(
            bd_model, variant.label,
            [&] {
              core::GradPruneConfig cfg;
              cfg.max_prune_rounds = scale.prune_max_rounds;
              cfg.finetune_max_epochs = scale.defense_max_epochs;
              return std::make_unique<FinetuneVariantDefense>(cfg,
                                                              variant.mode);
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
