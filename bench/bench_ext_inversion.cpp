// Extension experiment (the paper's stated future work): does the defense
// survive replacing the oracle trigger-synthesis assumption (Sec. III-C)
// with Neural-Cleanse-style trigger INVERSION?
//
// For each attack: defend the same backdoored model twice -
//   oracle   : defender synthesizes with the attacker's true trigger
//   inverted : defender recovers (mask, pattern) by inversion toward the
//              known target class and synthesizes with that
// and compare ACC/ASR/RA. The gap quantifies how much of the defense's
// power depends on trigger fidelity.
#include <cstdio>

#include "attack/poison.h"
#include "defense/inversion.h"
#include "eval/runner.h"
#include "eval/trainer.h"
#include "util/env.h"
#include "util/table.h"

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
  const eval::ExperimentScale scale = eval::default_scale("cifar");
  const std::uint64_t seed = base_seed();
  const std::int64_t spc = scale.spc_settings.back();

  std::printf("== Extension: oracle vs inverted trigger synthesis ==\n");
  std::printf("mode=%s trials=%d spc=%lld\n\n", full_mode() ? "full" : "quick",
              scale.trials, static_cast<long long>(spc));

  TextTable table({"Attack", "Synthesis", "ACC", "ASR", "RA"});
  for (const char* attack : {"badnet", "blended"}) {
    Rng seeder(seed ^ std::hash<std::string>{}(attack));
    const auto bd_model = eval::prepare_backdoored_model(
        "cifar", "preactresnet", attack, scale, seeder.next_u64());

    char buf[3][32];
    std::snprintf(buf[0], 32, "%.2f", bd_model.baseline.acc);
    std::snprintf(buf[1], 32, "%.2f", bd_model.baseline.asr);
    std::snprintf(buf[2], 32, "%.2f", bd_model.baseline.ra);
    table.add_row({attack, "baseline", buf[0], buf[1], buf[2]});

    // Oracle synthesis: the standard pipeline.
    const auto oracle =
        eval::run_setting(bd_model, "gradprune", spc, scale, seeder.next_u64());
    table.add_row(eval::metric_row({attack, "oracle"}, oracle));

    // Inverted synthesis: the same defense and trial protocol, with the
    // trigger inverted per trial.
    const auto inverted = eval::run_setting(
        bd_model, "inverted",
        [&] { return std::make_unique<InvertedSynthesisDefense>(scale); }, spc,
        scale.trials, seeder.next_u64());
    table.add_row(eval::metric_row({attack, "inverted"}, inverted));
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
