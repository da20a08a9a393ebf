// Experiment runner reproducing the paper's evaluation protocol (Sec. V):
// train a backdoored model (10% poisoning, all-to-one, target class 0),
// hand the defender SPC clean samples + synthesized triggered variants,
// apply a defense, and measure ACC / ASR / RA on held-out test sets.
//
// Scale is governed by BDPROTO_MODE (quick|full): quick shrinks images,
// widths, dataset sizes and training budgets so the full bench suite runs
// on a single core; full uses the paper-scale settings for this repo's
// synthetic substrate. BDPROTO_TRIALS overrides trials per setting.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/poison.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/trainer.h"

namespace bd::eval {

struct ExperimentScale {
  data::SynthConfig data;
  TrainConfig attack_train;
  std::int64_t base_width = 8;
  std::vector<std::int64_t> spc_settings;
  int trials = 3;
  // Defense budgets (quick mode trims these).
  std::int64_t defense_max_epochs = 20;
  std::int64_t prune_max_rounds = 60;
  std::int64_t anp_iterations = 40;
  std::int64_t nad_teacher_epochs = 5;
  std::int64_t nad_distill_epochs = 10;
};

/// Scale for "cifar" or "gtsrb", honouring BDPROTO_MODE / BDPROTO_TRIALS.
ExperimentScale default_scale(const std::string& dataset);

/// The scale fields that shape a trained backbone — synthetic data size,
/// attack-training budget and model width — each as '|' + value (doubles
/// bit-exact). Table cell keys and serve backbone cache keys embed it, so
/// both change whenever a backbone would.
std::string backbone_scale_signature(const ExperimentScale& s);

/// A trained backdoored model plus everything needed to evaluate defenses
/// against it. Reused across defenses / SPC settings / trials, mirroring
/// the paper (one attack run, many defense evaluations).
struct BackdooredModel {
  std::string dataset;  // cifar | gtsrb
  std::string attack;   // badnet | blended | lf | bpp
  models::ModelSpec spec;
  std::map<std::string, Tensor> state;  // trained poisoned weights
  std::unique_ptr<attack::TriggerApplier> trigger;
  data::ImageDataset clean_train_pool;  // defender SPC sampling pool
  data::ImageDataset clean_test;
  /// The triggered non-target test images labelled with the target class
  /// (ASR), and the same image tensors, in the same order, with their true
  /// labels (RA): prepare_backdoored_model builds both with
  /// attack::make_triggered_test_sets, so evaluate_backdoor predicts each
  /// triggered image once.
  data::ImageDataset asr_test;
  data::ImageDataset ra_test;
  BackdoorMetrics baseline;  // metrics with no defense applied
  /// TrainGuard recovery history of the attack training run.
  robust::GuardReport train_guard;

  /// Fresh model instance loaded with the backdoored weights.
  std::unique_ptr<models::Classifier> instantiate(Rng& rng) const;
};

/// Trains the backdoored model for (dataset, arch, attack) at `scale`.
BackdooredModel prepare_backdoored_model(const std::string& dataset,
                                         const std::string& arch,
                                         const std::string& attack,
                                         const ExperimentScale& scale,
                                         std::uint64_t seed);

/// One defense trial against a prepared backbone, as the serve daemon
/// runs it: sample SPC, build the defender's context, defend, evaluate.
/// The poisoned weights can come from a client checkpoint and the
/// repaired model can be kept for checkpointing.
struct SanitizeRequest {
  std::string defense = "gradprune";
  std::int64_t spc = 10;
  std::uint64_t seed = 0;
  /// Optional replacement for bd.state (a client-supplied poisoned
  /// checkpoint state dict); shapes must match bd.spec.
  const std::map<std::string, Tensor>* state_override = nullptr;
  /// Keep the sanitized model in the outcome (e.g. to save_checkpoint it).
  bool keep_model = false;
};

struct SanitizeOutcome {
  BackdoorMetrics metrics;
  defense::DefenseResult info;
  /// Sanitized model, populated only when SanitizeRequest::keep_model.
  std::unique_ptr<models::Classifier> model;
};

SanitizeOutcome run_sanitization(const BackdooredModel& bd,
                                 const SanitizeRequest& req,
                                 const ExperimentScale& scale);

/// XORed into a job's seed to give its trial seed. The serve daemon and
/// `bdctl defend` share it, so one job runs the same trial in both;
/// `bdctl profile` salts its setting seed with it too.
inline constexpr std::uint64_t kTrialSeedSalt = 0xBDC71E;

/// The defense `name` at `scale`'s defense budgets (CLP keeps its library
/// defaults). Throws std::invalid_argument for a name known_defenses()
/// does not list.
std::unique_ptr<defense::Defense> make_defense(const std::string& name,
                                               const ExperimentScale& scale);

/// Grad-Prune at `scale`'s budgets: the configuration make_defense
/// ("gradprune", scale) builds, and the one its ablation variants start from.
core::GradPruneConfig gradprune_config(const ExperimentScale& scale);

/// Every name make_defense accepts, in the paper's table order.
std::vector<std::string> known_defenses();

/// Table label of a defense ("FT", "FP", ..., "Ours"); an unknown name is
/// its own label.
std::string defense_display_name(const std::string& name);

/// Per-setting aggregate over trials.
struct SettingResult {
  std::string attack;
  std::string defense;
  std::int64_t spc = 0;
  std::vector<double> acc, asr, ra;  // one entry per trial
  std::vector<double> seconds;       // defense wall-clock per trial
  std::vector<std::int64_t> pruned;  // units pruned per trial
  std::vector<std::int64_t> recoveries;  // divergence recoveries per trial
  /// Supervisor verdict: true when the setting could not complete (retry
  /// budget exhausted or quarantined) and the metric vectors are partial.
  bool degraded = false;
  /// Failure reason for the degraded case ("" when healthy).
  std::string failure;
  /// Total supervised attempts across trials (== trials when clean).
  std::int64_t attempts = 0;
};

/// Builds the defense one trial applies (a fresh instance per attempt) at
/// the setting's scale.
using DefenseFactory =
    std::function<std::unique_ptr<defense::Defense>(const ExperimentScale&)>;

/// Runs `scale.trials` trials at one SPC setting of the defense `factory`
/// builds, reported under `label` (ablation variants use non-default
/// configurations). Every trial runs under Supervisor::instance() with a
/// seed pre-drawn from `seed`, so a retried trial re-derives identical
/// randomness and never shifts the seeds of later trials.
SettingResult run_setting(const BackdooredModel& bd, const std::string& label,
                          const DefenseFactory& factory, std::int64_t spc,
                          const ExperimentScale& scale, std::uint64_t seed);

/// `scale.trials` trials of make_defense(defense_name, scale).
SettingResult run_setting(const BackdooredModel& bd,
                          const std::string& defense_name, std::int64_t spc,
                          const ExperimentScale& scale, std::uint64_t seed);

}  // namespace bd::eval
