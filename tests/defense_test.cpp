// Baseline-defense tests: context construction, each defense's mechanics
// (pruning bookkeeping, mask lifecycle, data-free behaviour), and the
// name -> defense factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

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
#include "nn/layers.h"
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

// The outer step freezes the perturbations: afterwards none holds a
// gradient, and every mask's gradient has the bits of the step that left
// them trainable, whose perturbation gradients nothing read.
TEST(Anp, OuterStepLeavesNoPerturbationGradientAndTheMaskBits) {
  Fixture f;
  f.model->set_training(false);
  const nn::FrozenParameters frozen(*f.model);
  const AnpConfig cfg;
  std::vector<std::size_t> first(8);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = i;
  const data::Batch batch = data::stack(f.ctx.clean_train, first);
  const auto bns = f.model->modules_of_type<nn::BatchNorm2d>();
  const auto install = [&bns](std::vector<ag::Var>& masks,
                              std::vector<ag::Var>& deltas) {
    for (auto* bn : bns) {
      masks.emplace_back(Tensor::ones({bn->channels()}), true);
      deltas.emplace_back(Tensor::zeros({bn->channels()}), true);
      bn->set_channel_mask(masks.back());
      bn->set_gamma_perturbation(deltas.back());
    }
  };

  // The step with trainable perturbations throughout.
  std::vector<ag::Var> ref_masks, ref_deltas;
  ref_masks.reserve(bns.size());
  ref_deltas.reserve(bns.size());
  install(ref_masks, ref_deltas);
  ag::Var natural = ag::cross_entropy(
      f.model->forward(ag::Var(batch.images)), batch.labels);
  natural.backward();
  for (auto& d : ref_deltas) {
    Tensor& v = d.mutable_value();
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      const float g = d.grad()[i];
      const float step = g > 0 ? cfg.eps_step : (g < 0 ? -cfg.eps_step : 0.0f);
      v[i] = std::clamp(v[i] + step, -cfg.eps, cfg.eps);
    }
    d.zero_grad();
  }
  for (auto& m : ref_masks) m.zero_grad();
  ag::Var perturbed = ag::cross_entropy(
      f.model->forward(ag::Var(batch.images)), batch.labels);
  ag::add(ag::mul_scalar(natural, cfg.trade_off),
          ag::mul_scalar(perturbed, 1.0f - cfg.trade_off))
      .backward();

  std::vector<ag::Var> masks, deltas;
  masks.reserve(bns.size());
  deltas.reserve(bns.size());
  install(masks, deltas);
  anp_mask_gradients(*f.model, batch, cfg, masks, deltas);
  for (std::size_t b = 0; b < bns.size(); ++b) {
    EXPECT_FALSE(deltas[b].has_grad()) << "delta " << b;
    EXPECT_TRUE(deltas[b].requires_grad()) << "delta " << b;
    EXPECT_TRUE(ref_deltas[b].has_grad()) << "reference delta " << b;
    ASSERT_TRUE(masks[b].has_grad()) << "mask " << b;
    const Tensor& got = masks[b].grad();
    const Tensor& want = ref_masks[b].grad();
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0)
        << "mask " << b;
    // The inner ascent set the same perturbations.
    EXPECT_EQ(std::memcmp(deltas[b].value().data(),
                          ref_deltas[b].value().data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0)
        << "delta " << b;
  }
  for (auto* bn : bns) {
    bn->clear_channel_mask();
    bn->clear_gamma_perturbation();
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
