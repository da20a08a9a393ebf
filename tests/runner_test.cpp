// Experiment-runner tests: scale configuration invariants and a miniature
// end-to-end run through prepare_backdoored_model / run_setting with a
// deliberately tiny custom scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "eval/runner.h"
#include "robust/fault_injector.h"
#include "robust/supervisor.h"
#include "runtime/thread_pool.h"
#include "util/env.h"

namespace bd::eval {
namespace {

ExperimentScale micro_scale() {
  ExperimentScale s;
  s.data.height = s.data.width = 8;
  s.data.train_per_class = 8;
  s.data.test_per_class = 2;
  s.attack_train.epochs = 1;
  s.base_width = 8;
  s.spc_settings = {2};
  s.trials = 1;
  s.defense_max_epochs = 2;
  s.prune_max_rounds = 3;
  s.anp_iterations = 2;
  s.nad_teacher_epochs = 1;
  s.nad_distill_epochs = 1;
  return s;
}

TEST(Scale, DefaultsAreInternallyConsistent) {
  for (const char* dataset : {"cifar", "gtsrb"}) {
    const ExperimentScale s = default_scale(dataset);
    EXPECT_GT(s.trials, 0);
    ASSERT_FALSE(s.spc_settings.empty());
    // The clean pool must be able to supply the largest SPC setting.
    EXPECT_GE(s.data.train_per_class, s.spc_settings.back());
    EXPECT_GT(s.attack_train.epochs, 0);
    EXPECT_GT(s.defense_max_epochs, 0);
  }
  EXPECT_THROW(default_scale("imagenet"), std::invalid_argument);
}

TEST(Scale, TrialsOverridableByEnv) {
  setenv("BDPROTO_TRIALS", "7", 1);
  EXPECT_EQ(default_scale("cifar").trials, 7);
  unsetenv("BDPROTO_TRIALS");
}

TEST(Runner, MicroExperimentEndToEnd) {
  const ExperimentScale scale = micro_scale();
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 42);

  EXPECT_EQ(bd.dataset, "cifar");
  EXPECT_EQ(bd.attack, "badnet");
  EXPECT_FALSE(bd.state.empty());
  EXPECT_FALSE(bd.clean_test.empty());
  EXPECT_FALSE(bd.asr_test.empty());
  EXPECT_EQ(bd.asr_test.size(), bd.ra_test.size());
  // Metrics are percentages within range; invariant holds.
  EXPECT_LE(bd.baseline.asr + bd.baseline.ra, 100.0 + 1e-9);

  // Instantiate reproduces the stored weights.
  Rng rng(1);
  auto m1 = bd.instantiate(rng);
  auto m2 = bd.instantiate(rng);
  const auto s1 = m1->state_dict();
  const auto s2 = m2->state_dict();
  for (const auto& [name, tensor] : s1) {
    const auto& other = s2.at(name);
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_EQ(tensor[i], other[i]) << name;
    }
  }

  // One defense setting runs end-to-end and aggregates per-trial vectors.
  const SettingResult setting = run_setting(bd, "clp", 2, scale, 7);
  EXPECT_EQ(setting.attack, "badnet");
  EXPECT_EQ(setting.defense, "clp");
  ASSERT_EQ(setting.acc.size(), 1u);
  ASSERT_EQ(setting.seconds.size(), 1u);
  EXPECT_GE(setting.acc[0], 0.0);
  EXPECT_LE(setting.acc[0], 100.0);
  EXPECT_LE(setting.asr[0] + setting.ra[0], 100.0 + 1e-9);
}

TEST(Runner, TriggeredTestSetsShareImagesAndLabelTruly) {
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", micro_scale(), 42);
  const std::int64_t target = attack::PoisonConfig{}.target_class;

  // RA holds the triggered non-target images in clean_test order, with
  // their true labels; ASR holds the very same tensors labelled `target`.
  std::size_t j = 0;
  for (std::size_t i = 0; i < bd.clean_test.size(); ++i) {
    if (bd.clean_test.label(i) == target) continue;
    ASSERT_LT(j, bd.ra_test.size());
    EXPECT_EQ(bd.ra_test.label(j), bd.clean_test.label(i));
    const Tensor want = bd.trigger->apply(bd.clean_test.image(i));
    const Tensor& got = bd.ra_test.image(j);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_TRUE(std::equal(want.span().begin(), want.span().end(),
                           got.span().begin()));
    ++j;
  }
  EXPECT_EQ(j, bd.ra_test.size());
  ASSERT_EQ(bd.asr_test.size(), bd.ra_test.size());
  for (std::size_t k = 0; k < bd.asr_test.size(); ++k) {
    EXPECT_EQ(bd.asr_test.label(k), target);
    EXPECT_TRUE(bd.asr_test.image(k).shares_storage_with(bd.ra_test.image(k)));
  }
}

/// FNV-1a over one trial's repaired state_dict, the bit patterns of its
/// ACC/ASR/RA, and its pruned_units and finetune_epochs.
std::uint64_t outcome_hash(const SanitizeOutcome& trial) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& [name, tensor] : trial.model->state_dict()) {
    mix(name.data(), name.size());
    mix(tensor.data(), static_cast<std::size_t>(tensor.numel()) * sizeof(float));
  }
  for (const double m :
       {trial.metrics.acc, trial.metrics.asr, trial.metrics.ra}) {
    mix(&m, sizeof(m));
  }
  mix(&trial.info.pruned_units, sizeof(trial.info.pruned_units));
  mix(&trial.info.finetune_epochs, sizeof(trial.info.finetune_epochs));
  return h;
}

// Pins every defense's repaired model and metrics bit for bit, at 1 and 3
// engine threads. CLP and ANP leave this micro model unchanged, so their
// two pins are equal.
TEST(Runner, EveryRegisteredDefenseRunsAtMicroScale) {
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"ft", 0x2ad1f089ef602f9eull},
      {"fp", 0xa2905df60758cf53ull},
      {"nad", 0xc54fd9d20aed94aeull},
      {"clp", 0x594343972ad1ea4cull},
      {"ftsam", 0x5393cb572a4c0032ull},
      {"anp", 0x594343972ad1ea4cull},
      {"gradprune", 0xe0efa68b20587dcdull},
  };
  const ExperimentScale scale = micro_scale();
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "blended", scale, 43);
  for (const int threads : {1, 3}) {
    runtime::set_thread_count(threads);
    for (const auto& [defense, pin] : pins) {
      SanitizeRequest req;
      req.defense = defense;
      req.spc = 2;
      req.seed = 11;
      req.keep_model = true;
      const SanitizeOutcome trial = run_sanitization(bd, req, scale);
      EXPECT_GE(trial.metrics.acc, 0.0) << defense;
      EXPECT_LE(trial.metrics.asr + trial.metrics.ra, 100.0 + 1e-9) << defense;
      EXPECT_GE(trial.info.seconds, 0.0) << defense;
      ASSERT_NE(trial.model, nullptr) << defense;
      EXPECT_EQ(outcome_hash(trial), pin)
          << defense << " at " << threads << " threads: 0x" << std::hex
          << outcome_hash(trial);
    }
  }
  runtime::set_thread_count(0);
}

// ---------------------------------------------------------------------------
// Supervised trial execution inside run_setting
// ---------------------------------------------------------------------------

/// Saves/restores the global supervisor config and keeps faults disarmed.
class RunnerSupervised : public ::testing::Test {
 protected:
  void SetUp() override {
    robust::FaultInjector::instance().reset();
    saved_config_ = robust::Supervisor::instance().config();
    robust::SupervisorConfig config;
    config.backoff_initial_seconds = 0.001;
    config.backoff_factor = 1.0;
    robust::Supervisor::instance().configure(config);
  }
  void TearDown() override {
    robust::Supervisor::instance().configure(saved_config_);
    robust::FaultInjector::instance().reset();
  }

  robust::SupervisorConfig saved_config_;
};

TEST_F(RunnerSupervised, HealthySettingReportsOneAttemptPerTrial) {
  ExperimentScale scale = micro_scale();
  scale.trials = 2;
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 44);
  const SettingResult setting = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_FALSE(setting.degraded);
  EXPECT_EQ(setting.failure, "");
  EXPECT_EQ(setting.attempts, 2);  // one attempt per trial
  EXPECT_EQ(setting.acc.size(), 2u);
}

TEST_F(RunnerSupervised, RetriedTrialReusesItsPreDrawnSeed) {
  ExperimentScale scale = micro_scale();
  scale.trials = 2;
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 44);
  const SettingResult clean = run_setting(bd, "clp", 2, scale, 9);

  // Trial 1's first attempt fails; its retry must re-derive the same seed,
  // and trial 2's seed must not shift: bit-identical metrics.
  robust::FaultInjector::instance().configure("oom_sim@1");
  const SettingResult retried = run_setting(bd, "clp", 2, scale, 9);
  robust::FaultInjector::instance().reset();

  EXPECT_FALSE(retried.degraded);
  EXPECT_EQ(retried.attempts, 3);  // trial 1 twice + trial 2 once
  EXPECT_EQ(retried.acc, clean.acc);
  EXPECT_EQ(retried.asr, clean.asr);
  EXPECT_EQ(retried.ra, clean.ra);
}

TEST_F(RunnerSupervised, QuarantinedSettingIsRefusedImmediately) {
  robust::SupervisorConfig config;
  config.backoff_initial_seconds = 0.001;
  config.backoff_factor = 1.0;
  config.max_retries = 0;
  config.quarantine_strikes = 2;
  robust::Supervisor::instance().configure(config);

  const ExperimentScale scale = micro_scale();
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 44);

  // Two failing runs strike the config out...
  robust::FaultInjector::instance().configure("oom_sim@1,oom_sim@2");
  const SettingResult first = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_TRUE(first.degraded);
  EXPECT_EQ(first.attempts, 1);
  const SettingResult second = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_TRUE(second.degraded);
  robust::FaultInjector::instance().reset();

  // ...after which the supervisor refuses the key without running it.
  const SettingResult refused = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_TRUE(refused.degraded);
  EXPECT_EQ(refused.attempts, 0);
  EXPECT_NE(refused.failure.find("quarantined"), std::string::npos);
}

}  // namespace
}  // namespace bd::eval
