// Baseline-defense tests: context construction, each defense's mechanics
// (pruning bookkeeping, mask lifecycle, data-free behaviour), and the
// name -> defense factory.
#include <gtest/gtest.h>

#include "attack/trigger.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/anp.h"
#include "defense/clp.h"
#include "defense/fine_pruning.h"
#include "defense/finetune.h"
#include "defense/ftsam.h"
#include "defense/nad.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "models/factory.h"
#include "robust/cancel.h"
#include "tensor/ops.h"

namespace bd::defense {
namespace {

struct Fixture {
  Rng rng{101};
  data::TrainTest data;
  models::ModelSpec spec;
  std::unique_ptr<models::Classifier> model;
  attack::BadNetsTrigger trigger;
  DefenseContext ctx;

  explicit Fixture(std::int64_t per_class = 6, const char* arch = "vgg")
      : data([this, per_class] {
          data::SynthConfig cfg;
          cfg.height = cfg.width = 10;
          cfg.train_per_class = per_class;
          cfg.test_per_class = 2;
          return data::make_synth_cifar(cfg, rng);
        }()),
        spec{arch, 10, 3, 8},
        model(models::make_model(spec, rng)),
        ctx(make_defense_context(data.train, trigger, spec, rng)) {}
};

TEST(Context, SplitsAndSynthesis) {
  Fixture f;
  // 90/10 per-class split of 60 samples -> 50 train / 10 val.
  EXPECT_EQ(f.ctx.clean_train.size() + f.ctx.clean_val.size(), 60u);
  EXPECT_EQ(f.ctx.clean_val.indices_of_class(0).size(), 1u);
  // Synthesized sets mirror the clean splits with true labels.
  EXPECT_EQ(f.ctx.backdoor_train.size(), f.ctx.clean_train.size());
  EXPECT_EQ(f.ctx.backdoor_val.size(), f.ctx.clean_val.size());
  for (std::size_t i = 0; i < f.ctx.backdoor_train.size(); ++i) {
    EXPECT_EQ(f.ctx.backdoor_train.label(i), f.ctx.clean_train.label(i));
  }
  EXPECT_NO_THROW(f.ctx.rng_ref());
  DefenseContext empty{data::ImageDataset({3, 4, 4}, 2),
                       data::ImageDataset({3, 4, 4}, 2),
                       data::ImageDataset({3, 4, 4}, 2),
                       data::ImageDataset({3, 4, 4}, 2),
                       models::ModelSpec{},
                       nullptr};
  EXPECT_THROW(empty.rng_ref(), std::logic_error);
}

TEST(Finetune, RunsAndKeepsModelFunctional) {
  Fixture f;
  FinetuneConfig cfg;
  cfg.max_epochs = 3;
  FinetuneDefense defense(cfg);
  const auto result = defense.apply(*f.model, f.ctx);
  EXPECT_EQ(result.defense_name, "ft");
  EXPECT_GT(result.finetune_epochs, 0);
  EXPECT_LE(result.finetune_epochs, 3);
  // Model still produces valid probabilities.
  const double acc = eval::accuracy(*f.model, f.data.test);
  EXPECT_GE(acc, 0.0);
}

TEST(FinePruning, PrunesDormantFiltersAndEnforcesMasks) {
  Fixture f;
  FinePruningConfig cfg;
  cfg.finetune_max_epochs = 2;
  cfg.max_accuracy_drop = 1.0;  // never blocks pruning in this test
  cfg.max_prune_fraction = 0.3;
  FinePruningDefense defense(cfg);
  const auto result = defense.apply(*f.model, f.ctx);
  EXPECT_GT(result.pruned_units, 0);

  // Every pruned filter is still zero after the fine-tune stage.
  std::int64_t zeroed = 0;
  for (auto* conv : f.model->modules_of_type<nn::Conv2d>()) {
    const Tensor& w = conv->weight().value();
    const std::int64_t fsz = w.numel() / conv->out_channels();
    for (std::int64_t c = 0; c < conv->out_channels(); ++c) {
      if (!conv->is_filter_pruned(c)) continue;
      ++zeroed;
      for (std::int64_t j = 0; j < fsz; ++j) {
        ASSERT_EQ(w[c * fsz + j], 0.0f);
      }
    }
  }
  EXPECT_EQ(zeroed, result.pruned_units);
}

TEST(Clp, PrunesPlantedOutlierChannel) {
  Fixture f;
  // Plant an extreme-Lipschitz filter: scale one filter's weights up.
  auto convs = f.model->modules_of_type<nn::Conv2d>();
  nn::Conv2d* conv = convs.front();
  Tensor& w = conv->weight().mutable_value();
  const std::int64_t fsz = w.numel() / conv->out_channels();
  for (std::int64_t j = 0; j < fsz; ++j) w[2 * fsz + j] *= 50.0f;

  ClpDefense defense(ClpConfig{2.0, 20});
  const auto result = defense.apply(*f.model, f.ctx);
  EXPECT_GE(result.pruned_units, 1);
  EXPECT_TRUE(conv->is_filter_pruned(2));
}

TEST(Clp, DataFreeDeterminism) {
  // Two identical models yield identical pruning regardless of context.
  Fixture f1, f2;
  f2.model->load_state_dict(f1.model->state_dict());
  ClpDefense d1, d2;
  const auto r1 = d1.apply(*f1.model, f1.ctx);
  const auto r2 = d2.apply(*f2.model, f2.ctx);
  EXPECT_EQ(r1.pruned_units, r2.pruned_units);
}

TEST(Clp, SpectralNormMatchesKnownMatrix) {
  // Diagonal matrix: spectral norm = max |diagonal|.
  Tensor m({2, 2}, {3.0f, 0.0f, 0.0f, 1.0f});
  EXPECT_NEAR(spectral_norm(m, 30), 3.0f, 1e-3);
  Tensor zero({3, 3});
  EXPECT_EQ(spectral_norm(zero, 10), 0.0f);
}

TEST(Anp, MaskLifecycleAndSuppression) {
  Fixture f;
  AnpConfig cfg;
  cfg.iterations = 4;
  cfg.prune_threshold = 0.2f;
  AnpDefense defense(cfg);
  const auto result = defense.apply(*f.model, f.ctx);
  EXPECT_EQ(result.defense_name, "anp");

  std::int64_t suppressed = 0;
  for (auto* bn : f.model->modules_of_type<nn::BatchNorm2d>()) {
    // Masks/perturbations must be cleared after apply.
    EXPECT_FALSE(bn->channel_mask().defined());
    for (std::int64_t c = 0; c < bn->channels(); ++c) {
      if (bn->gamma().value()[c] == 0.0f && bn->beta().value()[c] == 0.0f) {
        ++suppressed;
      }
    }
  }
  EXPECT_GE(suppressed, result.pruned_units);
}

// The mask search runs with the weights frozen: it leaves them no
// gradient, and every parameter is trainable again after it, also when a
// cancellation unwinds it.
TEST(Anp, MaskSearchFreezesWeightsOnlyWhileItRuns) {
  Fixture f;
  AnpConfig cfg;
  cfg.iterations = 2;
  AnpDefense defense(cfg);
  defense.apply(*f.model, f.ctx);
  for (const auto& [name, p] : f.model->named_parameters()) {
    EXPECT_FALSE(p->has_grad()) << name;
    EXPECT_TRUE(p->requires_grad()) << name;
  }

  robust::CancelSource source;
  source.cancel("stop");
  const robust::CancelScope scope(source.token());
  EXPECT_THROW(defense.apply(*f.model, f.ctx), robust::Cancelled);
  for (const auto& [name, p] : f.model->named_parameters()) {
    EXPECT_TRUE(p->requires_grad()) << name;
  }
}

TEST(Nad, AttentionMapIsNormalized) {
  Rng rng(7);
  Tensor f({2, 4, 3, 3});
  for (std::int64_t i = 0; i < f.numel(); ++i) {
    f[i] = static_cast<float>(rng.normal());
  }
  const Tensor a = attention_map(ag::Var(f)).value();
  EXPECT_EQ(a.shape(), (Shape{2, 1, 3, 3}));
  // Per-sample L2 norm ~= 1.
  for (std::int64_t n = 0; n < 2; ++n) {
    double total = 0.0;
    for (std::int64_t j = 0; j < 9; ++j) {
      const float v = a[n * 9 + j];
      total += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(total, 1.0, 1e-3);
  }
}

TEST(Nad, RunsEndToEnd) {
  Fixture f(4);
  NadConfig cfg;
  cfg.teacher_epochs = 1;
  cfg.distill_epochs = 1;
  NadDefense defense(cfg);
  const auto result = defense.apply(*f.model, f.ctx);
  EXPECT_EQ(result.finetune_epochs, 1);
  EXPECT_GE(eval::accuracy(*f.model, f.data.test), 0.0);
}

TEST(FtSam, RunsFixedBudget) {
  Fixture f(4);
  FtSamConfig cfg;
  cfg.max_epochs = 3;
  FtSamDefense defense(cfg);
  const auto result = defense.apply(*f.model, f.ctx);
  EXPECT_GT(result.finetune_epochs, 0);
  EXPECT_LE(result.finetune_epochs, 3);
}

TEST(Registry, CoversAllDefensesWithDisplayNames) {
  eval::ExperimentScale scale;
  scale.prune_max_rounds = 7;
  scale.defense_max_epochs = 3;
  const auto names = eval::known_defenses();
  EXPECT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    auto defense = eval::make_defense(name, scale);
    ASSERT_NE(defense, nullptr);
    EXPECT_EQ(defense->name(), name);
    EXPECT_FALSE(eval::defense_display_name(name).empty());
  }
  EXPECT_EQ(eval::defense_display_name("gradprune"), "Ours");
  EXPECT_THROW(eval::make_defense("nope", scale), std::invalid_argument);

  // The factory builds at the run's budgets, not the library defaults.
  const auto ours = eval::make_defense("gradprune", scale);
  const auto& config =
      dynamic_cast<const core::GradPruneDefense&>(*ours).config();
  EXPECT_EQ(config.max_prune_rounds, scale.prune_max_rounds);
  EXPECT_EQ(config.finetune_max_epochs, scale.defense_max_epochs);
}

}  // namespace
}  // namespace bd::defense
