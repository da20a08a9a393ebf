// Eval module tests: accuracy/loss metrics, the ACC/ASR/RA triple and its
// invariant, training loops, early stopping, and dataset concatenation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "data/synth.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/factory.h"

namespace bd::eval {
namespace {

data::TrainTest tiny_task(Rng& rng, std::int64_t per_class = 12) {
  data::SynthConfig cfg;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = per_class;
  cfg.test_per_class = 4;
  return data::make_synth_cifar(cfg, rng);
}

std::unique_ptr<models::Classifier> tiny_model(Rng& rng,
                                               std::int64_t classes = 10) {
  models::ModelSpec spec;
  spec.arch = "vgg";
  spec.num_classes = classes;
  spec.base_width = 8;
  return models::make_model(spec, rng);
}

TEST(Metrics, AccuracyBounds) {
  Rng rng(1);
  const auto data = tiny_task(rng);
  auto model = tiny_model(rng);
  const double acc = accuracy(*model, data.test);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  // Untrained 10-class model: accuracy should be near chance.
  EXPECT_LT(acc, 0.5);
}

TEST(Metrics, AccuracyEmptyDatasetIsZero) {
  Rng rng(2);
  auto model = tiny_model(rng);
  const data::ImageDataset empty({3, 10, 10}, 10);
  EXPECT_EQ(accuracy(*model, empty), 0.0);
  EXPECT_EQ(dataset_loss(*model, empty), 0.0);
}

TEST(Metrics, AccuracyRestoresTrainingMode) {
  Rng rng(3);
  const auto data = tiny_task(rng, 2);
  auto model = tiny_model(rng);
  model->set_training(true);
  accuracy(*model, data.test);
  EXPECT_TRUE(model->training());
  model->set_training(false);
  accuracy(*model, data.test);
  EXPECT_FALSE(model->training());
}

TEST(Metrics, UntrainedLossNearLogC) {
  Rng rng(4);
  const auto data = tiny_task(rng, 2);
  auto model = tiny_model(rng);
  const double loss = dataset_loss(*model, data.test);
  EXPECT_NEAR(loss, std::log(10.0), 1.2);
}

TEST(Metrics, AsrPlusRaInvariant) {
  // ASR + RA <= 100 because the same triggered image cannot match both the
  // target label and its (different) true label.
  Rng rng(5);
  const auto data = tiny_task(rng);
  auto model = tiny_model(rng);
  attack::BadNetsTrigger trigger;
  const auto triggered = attack::make_triggered_test_sets(data.test, trigger, 0);
  const auto m =
      evaluate_backdoor(*model, data.test, triggered.asr, triggered.ra);
  EXPECT_LE(m.asr + m.ra, 100.0 + 1e-9);
  EXPECT_GE(m.acc, 0.0);
  EXPECT_LE(m.acc, 100.0);
}

/// Counts the model's forward calls; with a batch larger than every test
/// set, each call is one prediction pass over a set.
class CountingClassifier : public models::Classifier {
 public:
  explicit CountingClassifier(models::Classifier& inner) : inner_(inner) {
    register_module("inner", inner);
  }
  StagedOutput forward_with_features(const ag::Var& x) override {
    ++forwards;
    return inner_.forward_with_features(x);
  }
  std::int64_t num_classes() const override { return inner_.num_classes(); }
  const char* type_name() const override { return "CountingClassifier"; }

  int forwards = 0;

 private:
  models::Classifier& inner_;
};

TEST(Eval, SharedTriggeredPassMatchesSeparatePasses) {
  // A briefly backdoored model, so ASR and RA are both away from 0.
  Rng rng(11);
  const auto data = tiny_task(rng, 12);
  auto model = tiny_model(rng);
  attack::BadNetsTrigger trigger;
  attack::PoisonConfig poison;
  poison.poison_ratio = 0.3;
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.lr = 0.05f;
  train_classifier(*model,
                   attack::poison_training_set(data.train, trigger, poison, rng),
                   cfg, rng);

  const auto shared = attack::make_triggered_test_sets(data.test, trigger, 0);
  ASSERT_EQ(shared.asr.size(), shared.ra.size());
  for (std::size_t i = 0; i < shared.asr.size(); ++i) {
    ASSERT_TRUE(shared.asr.image(i).shares_storage_with(shared.ra.image(i)));
  }
  const auto asr_set = attack::make_asr_test_set(data.test, trigger, 0);
  const auto ra_set = attack::make_ra_test_set(data.test, trigger, 0);

  constexpr std::int64_t kOneBatch = 256;
  ASSERT_LT(data.test.size(), static_cast<std::size_t>(kOneBatch));
  CountingClassifier counted(*model);
  const BackdoorMetrics one =
      evaluate_backdoor(counted, data.test, shared.asr, shared.ra, kOneBatch);
  EXPECT_EQ(counted.forwards, 2);  // clean, triggered
  counted.forwards = 0;
  const BackdoorMetrics two =
      evaluate_backdoor(counted, data.test, asr_set, ra_set, kOneBatch);
  EXPECT_EQ(counted.forwards, 3);  // clean, ASR set, RA set

  // Bit for bit, at the default batch size too.
  const BackdoorMetrics dflt =
      evaluate_backdoor(*model, data.test, shared.asr, shared.ra);
  for (const BackdoorMetrics& m : {two, dflt}) {
    EXPECT_EQ(std::memcmp(&m.acc, &one.acc, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m.asr, &one.asr, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m.ra, &one.ra, sizeof(double)), 0);
  }
  EXPECT_LE(one.asr + one.ra, 100.0);
  EXPECT_GT(one.asr + one.ra, 0.0);
}

TEST(Trainer, LearnsTinyTask) {
  Rng rng(6);
  const auto data = tiny_task(rng, 30);
  auto model = tiny_model(rng);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.lr = 0.05f;
  const TrainResult result = train_classifier(*model, data.train, cfg, rng);
  EXPECT_LT(result.final_loss, 1.5);
  EXPECT_EQ(result.guard.recoveries, 0);
  EXPECT_FALSE(result.guard.gave_up);
  EXPECT_GT(accuracy(*model, data.test), 0.5);
}

TEST(Trainer, RejectsEmptyTrainingSet) {
  Rng rng(7);
  const auto data = tiny_task(rng, 2);
  auto model = tiny_model(rng);
  const data::ImageDataset empty({3, 10, 10}, 10);
  TrainConfig cfg;
  EXPECT_THROW(train_classifier(*model, empty, cfg, rng),
               std::invalid_argument);
  EXPECT_THROW(train_classifier(*model, data.train, cfg, rng, &empty),
               std::invalid_argument);
}

TEST(Trainer, EarlyStoppingRestoresBestState) {
  Rng rng(8);
  const auto data = tiny_task(rng, 10);
  auto [train, val] = data.train.split_per_class(0.8, rng);
  auto model = tiny_model(rng);

  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.patience = 2;
  cfg.lr = 0.05f;
  cfg.weight_decay = 0.0f;
  const auto result = train_classifier(*model, train, cfg, rng, &val);
  EXPECT_GT(result.epochs_run, 0);
  EXPECT_LE(result.epochs_run, 6);
  // The restored model's val loss equals the reported best.
  EXPECT_NEAR(dataset_loss(*model, val), result.best_val_loss, 1e-3);
}

// The hook runs after every step, with and without a validation set.
TEST(Trainer, PostStepHookRuns) {
  for (const bool with_val : {true, false}) {
    Rng rng(9);
    const auto data = tiny_task(rng, 4);
    auto [train, val] = data.train.split_per_class(0.75, rng);
    auto model = tiny_model(rng);

    int hook_calls = 0;
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.patience = 10;
    cfg.lr = 0.01f;
    cfg.weight_decay = 0.0f;
    cfg.post_step = [&hook_calls] { ++hook_calls; };
    const auto result =
        train_classifier(*model, train, cfg, rng, with_val ? &val : nullptr);
    EXPECT_EQ(result.epochs_run, 2) << with_val;
    // One call per batch: ceil(train / batch_size) batches per epoch.
    const auto batches =
        (static_cast<std::int64_t>(train.size()) + cfg.batch_size - 1) /
        cfg.batch_size;
    EXPECT_EQ(hook_calls, 2 * batches) << with_val;
  }
}

TEST(Trainer, ConcatDatasets) {
  Rng rng(10);
  const auto data = tiny_task(rng, 2);
  const auto merged = concat(data.train, data.test);
  EXPECT_EQ(merged.size(), data.train.size() + data.test.size());

  const data::ImageDataset other({3, 8, 8}, 10);
  EXPECT_THROW(concat(data.train, other), std::invalid_argument);
}

}  // namespace
}  // namespace bd::eval
