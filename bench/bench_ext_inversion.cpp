// Extension experiment (the paper's stated future work): does the defense
// survive replacing the oracle trigger-synthesis assumption (Sec. III-C)
// with Neural-Cleanse-style trigger INVERSION?
//
// For each of Table I's BadNet and Blended models, at the largest SPC:
// defend the same backdoored model twice -
//   oracle   : defender synthesizes with the attacker's true trigger
//   inverted : defender recovers (mask, pattern) by inversion toward the
//              known target class and synthesizes with that
// and compare ACC/ASR/RA. The gap quantifies how much of the defense's
// power depends on trigger fidelity.
#include "attack/poison.h"
#include "defense/inversion.h"
#include "eval/table_bench.h"
#include "eval/trainer.h"
#include "util/env.h"

namespace {

/// Grad-Prune on triggers the defender inverted instead of the oracle's:
/// inverts a trigger toward the (known) target class from the defender's
/// clean samples, re-synthesizes the backdoor sets with it, then defends.
class InvertedSynthesisDefense : public bd::defense::Defense {
 public:
  explicit InvertedSynthesisDefense(const bd::eval::ExperimentScale& scale)
      : gradprune_(bd::eval::make_defense("gradprune", scale)) {}

  bd::defense::DefenseResult apply(
      bd::models::Classifier& model,
      const bd::defense::DefenseContext& ctx) override {
    bd::defense::InversionConfig config;
    config.iterations = bd::full_mode() ? 200 : 80;
    const bd::defense::InvertedTriggerApplier trigger(
        bd::defense::invert_trigger(
            model, bd::eval::concat(ctx.clean_train, ctx.clean_val),
            /*target_class=*/0, config, ctx.rng_ref()));
    const bd::defense::DefenseContext inverted{
        ctx.clean_train,
        ctx.clean_val,
        bd::attack::synthesize_backdoor_set(ctx.clean_train, trigger),
        bd::attack::synthesize_backdoor_set(ctx.clean_val, trigger),
        ctx.model_spec,
        ctx.rng};
    return gradprune_->apply(model, inverted);
  }

  std::string name() const override { return "gradprune-inverted"; }

 private:
  std::unique_ptr<bd::defense::Defense> gradprune_;
};

}  // namespace

int main() {
  using namespace bd;
  eval::TableSpec spec;
  spec.title = "Extension: oracle vs inverted trigger synthesis";
  spec.dataset = "cifar";
  spec.arch = "preactresnet";
  spec.attacks = {"badnet", "blended"};
  // Oracle synthesis is the standard pipeline; inverted synthesis is the
  // same defense and trial protocol with the trigger inverted per trial.
  spec.defenses = {
      {"oracle",
       [](const eval::ExperimentScale& scale) {
         return eval::make_defense("gradprune", scale);
       }},
      {"inverted",
       [](const eval::ExperimentScale& scale) {
         return std::make_unique<InvertedSynthesisDefense>(scale);
       }},
  };
  eval::ExperimentScale scale = eval::default_scale(spec.dataset);
  scale.spc_settings = {scale.spc_settings.back()};
  spec.scale = scale;
  eval::run_table(spec);
  return 0;
}
