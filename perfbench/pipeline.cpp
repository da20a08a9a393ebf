// The paper pipeline (Sec. IV) as a traced probe of the table_vgg
// workload: synthetic CIFAR stand-in -> 10% BadNet poison -> PreActResNet
// trained at quick scale -> Grad-Prune at SPC 10 -> ACC/ASR/RA, on one
// engine thread. Its spans time the data, attack, training and Grad-Prune
// stage layers, and its results are checked like any unit's.
#include <cstdio>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "bench.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/trainer.h"
#include "runtime/thread_pool.h"

namespace perfbench {
namespace {

constexpr std::int64_t kSpc = 10;
// Pinned from the seed code at quick scale (see CATALOG.md): both models
// must classify clean images well and Grad-Prune must leave no backdoor.
// Baseline ASR is not checked: at quick scale the attack fails to take hold
// at some seeds (down to 8.4% ASR).
constexpr double kMinAcc = 80.0;
constexpr double kMaxDefendedAsr = 10.0;
// The layer spans must cover the pipeline up to this share; the rest is
// glue between the calls (configs, empty datasets, moves).
constexpr double kMaxUnattributed = 0.05;

struct UnitResult {
  bd::eval::BackdoorMetrics baseline;
  bd::eval::BackdoorMetrics defended;
  std::int64_t pruned = 0;
  std::int64_t finetune_epochs = 0;
  std::int64_t train_images = 0;  // images x epochs
  std::int64_t epochs = 0;
};

std::string unit_signature(const UnitResult& r) {
  return exact(r.baseline.acc) + " " + exact(r.baseline.asr) + " " +
         exact(r.baseline.ra) + " " + exact(r.defended.acc) + " " +
         exact(r.defended.asr) + " " + exact(r.defended.ra) + " pruned=" +
         std::to_string(r.pruned);
}

UnitResult run_unit(std::uint64_t seed, Recorder& rec) {
  using namespace bd;
  UnitResult r;
  Scope unit_span(rec, "pipeline");
  const eval::ExperimentScale scale = eval::default_scale("cifar");
  Rng rng(seed);

  data::TrainTest split = [&] {
    Scope s(rec, "data.synth");
    return data::make_synth_cifar(scale.data, rng);
  }();
  const Shape image_shape = split.train.image_shape();
  const attack::PoisonConfig poison_cfg;
  std::unique_ptr<attack::TriggerApplier> trigger;
  data::ImageDataset poisoned(image_shape, split.train.num_classes());
  data::ImageDataset asr_test(image_shape, split.train.num_classes());
  data::ImageDataset ra_test(image_shape, split.train.num_classes());
  {
    Scope s(rec, "attack.poison");
    trigger = attack::make_trigger("badnet", image_shape);
    poisoned = attack::poison_training_set(split.train, *trigger, poison_cfg,
                                           rng);
    asr_test = attack::make_asr_test_set(split.test, *trigger,
                                         poison_cfg.target_class);
    ra_test = attack::make_ra_test_set(split.test, *trigger,
                                       poison_cfg.target_class);
  }

  models::ModelSpec spec{"preactresnet", split.train.num_classes(),
                         image_shape[0], scale.base_width};
  std::unique_ptr<models::Classifier> model;
  {
    Scope s(rec, "models.init");
    model = models::make_model(spec, rng);
  }
  {
    Scope s(rec, "eval.train");
    eval::train_classifier(*model, poisoned, scale.attack_train, rng);
  }
  r.epochs = scale.attack_train.epochs;
  r.train_images = static_cast<std::int64_t>(poisoned.size()) * r.epochs;
  {
    Scope s(rec, "eval.evaluate");
    r.baseline = eval::evaluate_backdoor(*model, split.test, asr_test, ra_test);
  }

  const defense::DefenseContext ctx = [&] {
    Scope s(rec, "defense.context");
    const data::ImageDataset spc_set =
        split.train.sample_per_class(kSpc, rng);
    return defense::make_defense_context(spc_set, *trigger, spec, rng);
  }();
  // The quick-scale budgets run_setting gives Grad-Prune, run as its two
  // stages (prune-only, then fine-tune-only on the pruned model), which
  // together do exactly the work of one combined call.
  core::GradPruneConfig prune_only;
  prune_only.max_prune_rounds = scale.prune_max_rounds;
  prune_only.finetune_max_epochs = scale.defense_max_epochs;
  core::GradPruneConfig finetune_only = prune_only;
  prune_only.finetune = false;
  finetune_only.prune = false;
  {
    Scope s(rec, "core.prune");
    r.pruned = core::GradPruneDefense(prune_only).apply(*model, ctx).pruned_units;
  }
  {
    Scope s(rec, "core.finetune");
    r.finetune_epochs =
        core::GradPruneDefense(finetune_only).apply(*model, ctx).finetune_epochs;
  }
  {
    Scope s(rec, "eval.evaluate");
    r.defended = eval::evaluate_backdoor(*model, split.test, asr_test, ra_test);
  }
  return r;
}

}  // namespace

void run_pipeline_probe(const Options& options, Outcome& out) {
  Recorder rec(true);
  RefStore refs(options.refs_dir + "/pipeline_probe.tsv");
  const std::uint64_t seed = derive_seed(options.seed, 200);
  const std::string key = "seed=" + std::to_string(seed);
  bd::runtime::set_thread_count(1);
  const UnitResult r = run_unit(seed, rec);

  std::fprintf(stderr,
               "pipeline probe %s: ACC/ASR/RA %.1f/%.1f/%.1f -> "
               "%.1f/%.1f/%.1f after Grad-Prune (%lld pruned)\n",
               key.c_str(), r.baseline.acc, r.baseline.asr, r.baseline.ra,
               r.defended.acc, r.defended.asr, r.defended.ra,
               static_cast<long long>(r.pruned));
  refs.check(key, unit_signature(r), out);
  refs.save();
  out.check(r.baseline.acc >= kMinAcc && r.defended.acc >= kMinAcc,
            "pipeline clean ACC " + exact(r.baseline.acc) + " -> " +
                exact(r.defended.acc) + " below " + exact(kMinAcc) + " at " + key);
  out.check(r.defended.asr <= kMaxDefendedAsr,
            "pipeline Grad-Prune ASR " + exact(r.defended.asr) + " > " +
                exact(kMaxDefendedAsr) + " at " + key);

  auto span_s = [&](const char* name) { return rec.durations(name).front(); };
  const double train_s = span_s("eval.train");
  const double finetune_s = span_s("core.finetune");
  out.add("data.synth_ms", 1e3 * span_s("data.synth"), "ms", 1);
  out.add("attack.poison_ms", 1e3 * span_s("attack.poison"), "ms", 1);
  out.add("eval.train_epoch_s", train_s / static_cast<double>(r.epochs), "s", 1);
  out.add("eval.train_img_per_s", static_cast<double>(r.train_images) / train_s,
          "img/s", 1);
  out.add("eval.finetune_epoch_s",
          finetune_s / static_cast<double>(std::max<std::int64_t>(1, r.finetune_epochs)),
          "s", 1);
  out.add("core.prune_stage_s", span_s("core.prune"), "s", 1);
  out.add("core.finetune_stage_s", finetune_s, "s", 1);
  out.add("core.pruned_units", static_cast<double>(r.pruned), "count", 1);
  const double unattributed = rec.unattributed_share("pipeline");
  out.add("trace.unattributed_share", unattributed, "share", 1,
          "pipeline time outside its layer spans");
  out.check(unattributed <= kMaxUnattributed,
            "layer spans leave " + exact(unattributed) +
                " of the pipeline unattributed (limit " +
                exact(kMaxUnattributed) + ")");
  rec.write(options.state_dir + "/trace_pipeline_probe_" +
            std::to_string(options.seed) + ".json");
}

}  // namespace perfbench
