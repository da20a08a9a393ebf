#include "eval/runner.h"

#include <stdexcept>

#include "data/synth.h"
#include "defense/anp.h"
#include "defense/clp.h"
#include "defense/fine_pruning.h"
#include "defense/finetune.h"
#include "defense/ftsam.h"
#include "defense/nad.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "robust/supervisor.h"
#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace bd::eval {

ExperimentScale default_scale(const std::string& dataset) {
  ExperimentScale s;
  const bool full = full_mode();
  const bool gtsrb = dataset == "gtsrb";
  if (dataset != "cifar" && dataset != "gtsrb") {
    throw std::invalid_argument("default_scale: unknown dataset '" + dataset +
                                "'");
  }

  s.data.height = s.data.width = full ? 20 : 12;
  // The SPC=100 setting needs >= 112 clean training samples per class
  // (100 for the defender + headroom); quick mode stops at SPC=10.
  s.data.train_per_class = full ? (gtsrb ? 140 : 260) : (gtsrb ? 40 : 90);
  s.data.test_per_class = full ? (gtsrb ? 25 : 60) : (gtsrb ? 8 : 25);

  s.attack_train.epochs = full ? 8 : 4;
  s.attack_train.batch_size = 32;
  s.attack_train.lr = 0.05f;
  s.attack_train.lr_decay = 0.7f;

  s.base_width = full ? 16 : 8;
  s.spc_settings = full ? std::vector<std::int64_t>{2, 10, 100}
                        : std::vector<std::int64_t>{2, 10};
  s.trials = trial_count(/*quick_default=*/2, /*full_default=*/5);

  s.defense_max_epochs = full ? 50 : 15;
  s.prune_max_rounds = full ? 150 : 40;
  s.anp_iterations = full ? 120 : 60;
  s.nad_teacher_epochs = full ? 10 : 4;
  s.nad_distill_epochs = full ? 20 : 8;
  return s;
}

std::string backbone_scale_signature(const ExperimentScale& s) {
  std::string sig;
  const auto add_i = [&sig](std::int64_t v) {
    sig += '|';
    sig += std::to_string(v);
  };
  const auto add_d = [&sig](double v) {
    sig += '|';
    sig += exact_double(v);
  };
  add_i(s.data.height);
  add_i(s.data.width);
  add_i(s.data.train_per_class);
  add_i(s.data.test_per_class);
  add_i(s.attack_train.epochs);
  add_i(s.attack_train.batch_size);
  add_d(s.attack_train.lr);
  add_d(s.attack_train.momentum);
  add_d(s.attack_train.weight_decay);
  add_d(s.attack_train.lr_decay);
  add_i(s.base_width);
  return sig;
}

std::unique_ptr<models::Classifier> BackdooredModel::instantiate(
    Rng& rng) const {
  auto model = models::make_model(spec, rng);
  model->load_state_dict(state);
  model->set_training(false);
  return model;
}

BackdooredModel prepare_backdoored_model(const std::string& dataset,
                                         const std::string& arch,
                                         const std::string& attack,
                                         const ExperimentScale& scale,
                                         std::uint64_t seed) {
  BD_OBS_SPAN("runner.prepare");
  Stopwatch watch;
  Rng rng(seed);

  data::TrainTest split = dataset == "gtsrb"
                              ? data::make_synth_gtsrb(scale.data, rng)
                              : data::make_synth_cifar(scale.data, rng);
  const Shape image_shape = split.train.image_shape();
  const std::int64_t num_classes = split.train.num_classes();

  BackdooredModel bd{dataset,
                     attack,
                     models::ModelSpec{},
                     {},
                     attack::make_trigger(attack, image_shape),
                     std::move(split.train),
                     std::move(split.test),
                     data::ImageDataset(image_shape, num_classes),
                     data::ImageDataset(image_shape, num_classes),
                     BackdoorMetrics{},
                     robust::GuardReport{}};

  bd.spec.arch = arch;
  bd.spec.num_classes = bd.clean_train_pool.num_classes();
  bd.spec.in_channels = bd.clean_train_pool.image_shape()[0];
  bd.spec.base_width = scale.base_width;

  const attack::PoisonConfig poison_cfg;  // 10% poisoning, target class 0
  const data::ImageDataset poisoned = attack::poison_training_set(
      bd.clean_train_pool, *bd.trigger, poison_cfg, rng);

  attack::TriggeredTestSets triggered = attack::make_triggered_test_sets(
      bd.clean_test, *bd.trigger, poison_cfg.target_class);
  bd.asr_test = std::move(triggered.asr);
  bd.ra_test = std::move(triggered.ra);

  auto model = models::make_model(bd.spec, rng);
  BD_LOG(Info) << "training backdoored " << arch << " (" << attack << ", "
               << dataset << ", " << model->parameter_count() << " params)";
  const TrainResult train = train_classifier(*model, poisoned,
                                             scale.attack_train, rng);
  bd.train_guard = train.guard;
  if (train.guard.recoveries > 0 || train.guard.gave_up) {
    BD_LOG(Warn) << "attack training recovered from divergence: "
                 << train.guard.summary();
  }

  bd.state = model->state_dict();
  bd.baseline =
      evaluate_backdoor(*model, bd.clean_test, bd.asr_test, bd.ra_test);
  BD_LOG(Info) << "baseline ACC=" << bd.baseline.acc
               << " ASR=" << bd.baseline.asr << " RA=" << bd.baseline.ra
               << " (" << watch.seconds() << "s)";
  return bd;
}

namespace {

struct DefenseLabel {
  const char* name;
  const char* label;
};

/// The defenses make_defense builds and their table labels, in the
/// paper's table order.
constexpr DefenseLabel kDefenses[] = {{"ft", "FT"},
                                      {"fp", "FP"},
                                      {"nad", "NAD"},
                                      {"clp", "CLP"},
                                      {"ftsam", "FT-SAM"},
                                      {"anp", "ANP"},
                                      {"gradprune", "Ours"}};

}  // namespace

std::unique_ptr<defense::Defense> make_defense(const std::string& name,
                                               const ExperimentScale& scale) {
  if (name == "ft") {
    defense::FinetuneConfig c;
    c.max_epochs = scale.defense_max_epochs;
    return std::make_unique<defense::FinetuneDefense>(c);
  }
  if (name == "fp") {
    defense::FinePruningConfig c;
    c.finetune_max_epochs = scale.defense_max_epochs;
    return std::make_unique<defense::FinePruningDefense>(c);
  }
  if (name == "nad") {
    defense::NadConfig c;
    c.teacher_epochs = scale.nad_teacher_epochs;
    c.distill_epochs = scale.nad_distill_epochs;
    return std::make_unique<defense::NadDefense>(c);
  }
  if (name == "clp") return std::make_unique<defense::ClpDefense>();
  if (name == "ftsam") {
    defense::FtSamConfig c;
    c.max_epochs = scale.defense_max_epochs;
    return std::make_unique<defense::FtSamDefense>(c);
  }
  if (name == "anp") {
    defense::AnpConfig c;
    c.iterations = scale.anp_iterations;
    return std::make_unique<defense::AnpDefense>(c);
  }
  if (name == "gradprune") {
    return std::make_unique<core::GradPruneDefense>(gradprune_config(scale));
  }
  throw std::invalid_argument("make_defense: unknown defense '" + name + "'");
}

core::GradPruneConfig gradprune_config(const ExperimentScale& scale) {
  core::GradPruneConfig c;
  c.max_prune_rounds = scale.prune_max_rounds;
  c.finetune_max_epochs = scale.defense_max_epochs;
  return c;
}

std::vector<std::string> known_defenses() {
  std::vector<std::string> names;
  for (const DefenseLabel& d : kDefenses) names.emplace_back(d.name);
  return names;
}

std::string defense_display_name(const std::string& name) {
  for (const DefenseLabel& d : kDefenses) {
    if (name == d.name) return d.label;
  }
  return name;
}

namespace {

/// The one trial: instantiate the backdoored model (optionally with
/// replaced weights), sample the defender's SPC set, build its context,
/// apply `defense` (req.defense is not consulted) and evaluate. All
/// randomness derives from `req.seed`.
SanitizeOutcome run_trial(const BackdooredModel& bd,
                          const SanitizeRequest& req,
                          defense::Defense& defense) {
  BD_OBS_SPAN_ARG("runner.trial", req.spc);
  BD_OBS_COUNT("runner.trials", 1);
  robust::FaultInjector::instance().fire_oom("runner.trial");
  Rng rng(req.seed);
  auto model = bd.instantiate(rng);
  if (req.state_override != nullptr) {
    model->load_state_dict(*req.state_override);
  }

  const data::ImageDataset spc_set =
      bd.clean_train_pool.sample_per_class(req.spc, rng);
  const defense::DefenseContext ctx =
      defense::make_defense_context(spc_set, *bd.trigger, bd.spec, rng);

  SanitizeOutcome result;
  result.info = defense.apply(*model, ctx);
  result.metrics =
      evaluate_backdoor(*model, bd.clean_test, bd.asr_test, bd.ra_test);
  if (req.keep_model) result.model = std::move(model);
  return result;
}

}  // namespace

SanitizeOutcome run_sanitization(const BackdooredModel& bd,
                                 const SanitizeRequest& req,
                                 const ExperimentScale& scale) {
  const auto defense = make_defense(req.defense, scale);
  return run_trial(bd, req, *defense);
}

SettingResult run_setting(const BackdooredModel& bd, const std::string& label,
                          const DefenseFactory& factory, std::int64_t spc,
                          const ExperimentScale& scale, std::uint64_t seed) {
  const int trials = scale.trials;
  SettingResult out;
  out.attack = bd.attack;
  out.defense = label;
  out.spc = spc;

  // Pre-draw every trial seed before any work runs: a supervised retry of
  // trial t re-uses trial_seeds[t] verbatim, so retries neither advance the
  // seeder nor shift the seeds of later trials.
  Rng seeder(seed);
  std::vector<std::uint64_t> trial_seeds;
  trial_seeds.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    trial_seeds.push_back(seeder.next_u64());
  }

  const std::string supervise_key =
      bd.attack + "|" + label + "|" + std::to_string(spc);
  auto& supervisor = robust::Supervisor::instance();
  for (int t = 0; t < trials; ++t) {
    SanitizeRequest req;
    req.spc = spc;
    req.seed = trial_seeds[static_cast<std::size_t>(t)];
    SanitizeOutcome trial;
    const robust::RunReport report = supervisor.run(supervise_key, [&] {
      const auto defense = factory(scale);
      trial = run_trial(bd, req, *defense);
    });
    out.attempts += report.attempts;
    if (!report.ok()) {
      out.degraded = true;
      out.failure = report.failure;
      BD_LOG(Warn) << bd.attack << " spc=" << spc << " " << label
                   << " trial " << (t + 1) << "/" << trials
                   << " degraded: " << report.failure;
      break;
    }
    out.acc.push_back(trial.metrics.acc);
    out.asr.push_back(trial.metrics.asr);
    out.ra.push_back(trial.metrics.ra);
    out.seconds.push_back(trial.info.seconds);
    out.pruned.push_back(trial.info.pruned_units);
    out.recoveries.push_back(trial.info.recoveries);
    BD_LOG(Info) << bd.attack << " spc=" << spc << " " << label
                 << " trial " << (t + 1) << "/" << trials
                 << ": ACC=" << trial.metrics.acc
                 << " ASR=" << trial.metrics.asr
                 << " RA=" << trial.metrics.ra
                 << (trial.info.recoveries > 0
                         ? " (recoveries=" +
                               std::to_string(trial.info.recoveries) + ")"
                         : "");
  }
  return out;
}

SettingResult run_setting(const BackdooredModel& bd,
                          const std::string& defense_name, std::int64_t spc,
                          const ExperimentScale& scale, std::uint64_t seed) {
  return run_setting(
      bd, defense_name,
      [&](const ExperimentScale& s) { return make_defense(defense_name, s); },
      spc, scale, seed);
}

}  // namespace bd::eval
