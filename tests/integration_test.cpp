// End-to-end integration tests across all modules: poison -> train ->
// verify the backdoor implants -> defend -> verify mitigation. Uses a
// deliberately small scale so the whole file stays in CI-friendly time.
#include <gtest/gtest.h>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "defense/finetune.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/factory.h"

namespace bd {
namespace {

struct Pipeline {
  Rng rng{4242};
  data::TrainTest data;
  attack::BadNetsTrigger trigger;
  attack::PoisonConfig poison_cfg;
  models::ModelSpec spec;
  std::unique_ptr<models::Classifier> model;
  attack::TriggeredTestSets triggered;

  Pipeline()
      : data([this] {
          data::SynthConfig cfg;
          cfg.height = cfg.width = 10;
          cfg.train_per_class = 40;
          cfg.test_per_class = 10;
          return data::make_synth_cifar(cfg, rng);
        }()),
        spec{"vgg", 10, 3, 8},
        model(models::make_model(spec, rng)),
        triggered(attack::make_triggered_test_sets(data.test, trigger, 0)) {
    const auto poisoned =
        attack::poison_training_set(data.train, trigger, poison_cfg, rng);
    eval::TrainConfig train_cfg;
    train_cfg.epochs = 3;
    eval::train_classifier(*model, poisoned, train_cfg, rng);
  }
};

/// One shared pipeline: training it once keeps the suite fast.
Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

TEST(EndToEnd, BackdoorImplants) {
  auto& p = pipeline();
  const auto m =
      eval::evaluate_backdoor(*p.model, p.data.test,
                              p.triggered.asr, p.triggered.ra);
  EXPECT_GT(m.acc, 70.0) << "main task should be learned";
  EXPECT_GT(m.asr, 80.0) << "backdoor should be implanted";
  EXPECT_LT(m.ra, 30.0);
  EXPECT_LE(m.asr + m.ra, 100.0 + 1e-9);
}

TEST(EndToEnd, GradPruneMitigatesBackdoor) {
  auto& p = pipeline();
  // Fresh copy of the backdoored model for this test.
  Rng rng(99);
  auto model = models::make_model(p.spec, rng);
  model->load_state_dict(p.model->state_dict());

  const auto spc_set = p.data.train.sample_per_class(10, rng);
  const auto ctx =
      defense::make_defense_context(spc_set, p.trigger, p.spec, rng);

  core::GradPruneConfig cfg;
  cfg.max_prune_rounds = 30;
  cfg.finetune_max_epochs = 10;
  core::GradPruneDefense defense(cfg);
  const auto info = defense.apply(*model, ctx);

  const auto before =
      eval::evaluate_backdoor(*p.model, p.data.test,
                              p.triggered.asr, p.triggered.ra);
  const auto after =
      eval::evaluate_backdoor(*model, p.data.test,
                              p.triggered.asr, p.triggered.ra);

  EXPECT_LT(after.asr, before.asr * 0.5) << "ASR should at least halve";
  EXPECT_GT(after.acc, before.acc - 15.0) << "ACC should survive";
  EXPECT_GT(after.ra, before.ra) << "RA should recover";
  EXPECT_GT(info.finetune_epochs, 0);
}

TEST(EndToEnd, FinetuneDefenseWithEnoughDataAlsoWorks) {
  auto& p = pipeline();
  Rng rng(77);
  auto model = models::make_model(p.spec, rng);
  model->load_state_dict(p.model->state_dict());

  const auto spc_set = p.data.train.sample_per_class(20, rng);
  const auto ctx =
      defense::make_defense_context(spc_set, p.trigger, p.spec, rng);
  defense::FinetuneConfig cfg;
  cfg.max_epochs = 10;
  defense::FinetuneDefense ft(cfg);
  ft.apply(*model, ctx);

  const auto after =
      eval::evaluate_backdoor(*model, p.data.test,
                              p.triggered.asr, p.triggered.ra);
  EXPECT_GT(after.acc, 60.0);
}

TEST(EndToEnd, DefendedModelSurvivesSaveLoad) {
  auto& p = pipeline();
  Rng rng(55);
  auto model = models::make_model(p.spec, rng);
  model->load_state_dict(p.model->state_dict());
  auto reloaded = models::make_model(p.spec, rng);
  reloaded->load_state_dict(model->state_dict());
  const auto a =
      eval::evaluate_backdoor(*model, p.data.test,
                              p.triggered.asr, p.triggered.ra);
  const auto b =
      eval::evaluate_backdoor(*reloaded, p.data.test,
                              p.triggered.asr, p.triggered.ra);
  EXPECT_DOUBLE_EQ(a.acc, b.acc);
  EXPECT_DOUBLE_EQ(a.asr, b.asr);
}

}  // namespace
}  // namespace bd
