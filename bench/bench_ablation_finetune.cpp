// Ablation C: contribution of the Sec. IV-C fine-tuning stage, and of the
// backdoor data within it.
//
// Variants on Table I's backdoored models:
//   no-ft          : pruning only
//   ft-clean       : fine-tune on clean data only (classic recovery)
//   ft-clean+bd    : the paper's stage - clean + relabelled backdoor data
// The paper's claim: fine-tuning with relabelled backdoor data both
// recovers ACC lost to pruning and removes backdoor remnants in unpruned
// (dense) layers, lifting RA.
#include "core/grad_prune.h"
#include "eval/table_bench.h"
#include "eval/trainer.h"

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
  // "ours" is the registered defense; the other two vary its stage 2.
  eval::TableSpec spec;
  spec.title = "Ablation C: fine-tuning stage variants";
  spec.dataset = "cifar";
  spec.arch = "preactresnet";
  spec.attacks = {"badnet", "lf"};
  spec.defenses = {
      {"no-ft",
       [](const eval::ExperimentScale& scale) {
         core::GradPruneConfig prune_only = eval::gradprune_config(scale);
         prune_only.finetune = false;
         return std::make_unique<core::GradPruneDefense>(prune_only);
       }},
      {"ft-clean",
       [](const eval::ExperimentScale& scale) {
         return std::make_unique<CleanFinetuneDefense>(
             eval::gradprune_config(scale));
       }},
      {"ft-clean+bd (ours)",
       [](const eval::ExperimentScale& scale) {
         return eval::make_defense("gradprune", scale);
       }},
  };
  eval::run_table(spec);
  return 0;
}
