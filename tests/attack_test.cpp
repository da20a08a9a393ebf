// Attack library tests: trigger properties (locality, blending, bounds,
// idempotence where expected), poisoning ratios/labels, and the ASR/RA
// test-set constructions.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "data/synth.h"
#include "tensor/ops.h"

namespace bd::attack {
namespace {

Tensor mid_gray(const Shape& shape) { return Tensor::full(shape, 0.5f); }

TEST(BadNets, PatchIsLocalizedBottomRight) {
  BadNetsTrigger trigger(0.25);
  const Shape shape{3, 16, 16};
  const Tensor x = mid_gray(shape);
  const Tensor y = trigger.apply(x);

  std::int64_t changed = 0;
  const std::int64_t patch = 4;  // 16 * 0.25
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] != x[i]) ++changed;
  }
  EXPECT_EQ(changed % 3, 0);  // same pattern on every channel
  EXPECT_LE(changed, 3 * patch * patch);
  EXPECT_GT(changed, 0);

  // Only bottom-right patch pixels may differ.
  const std::int64_t hw = 16 * 16;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == x[i]) continue;
    const std::int64_t pos = i % hw;
    EXPECT_GE(pos / 16, 16 - patch);
    EXPECT_GE(pos % 16, 16 - patch);
  }
}

TEST(BadNets, DeterministicAndIdempotent) {
  BadNetsTrigger trigger;
  Rng rng(1);
  data::SynthConfig cfg;
  cfg.height = cfg.width = 12;
  const Tensor x = data::render_synth_cifar_image(3, cfg, rng);
  const Tensor y1 = trigger.apply(x);
  const Tensor y2 = trigger.apply(x);
  const Tensor y3 = trigger.apply(y1);
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_EQ(y1[i], y2[i]);
    EXPECT_EQ(y1[i], y3[i]);  // patch overwrite is idempotent
  }
}

TEST(BadNets, RejectsBadConfig) {
  EXPECT_THROW(BadNetsTrigger(0.0), std::invalid_argument);
  EXPECT_THROW(BadNetsTrigger(0.7), std::invalid_argument);
  BadNetsTrigger t;
  EXPECT_THROW(t.apply(Tensor({3, 3})), std::invalid_argument);
}

TEST(Blended, BlendsTowardPattern) {
  const Shape shape{3, 8, 8};
  BlendedTrigger trigger(shape, 0.3f);
  const Tensor x = mid_gray(shape);
  const Tensor y = trigger.apply(x);
  // Every pixel moves toward the pattern: |y - x| <= alpha * 1.
  std::int64_t moved = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_LE(std::fabs(y[i] - x[i]), 0.3f + 1e-5f);
    if (y[i] != x[i]) ++moved;
  }
  EXPECT_GT(moved, y.numel() / 2);  // global trigger touches most pixels
}

TEST(Blended, FixedPatternAcrossInstances) {
  const Shape shape{3, 8, 8};
  BlendedTrigger a(shape), b(shape);
  const Tensor x = mid_gray(shape);
  const Tensor ya = a.apply(x), yb = b.apply(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Blended, Validation) {
  EXPECT_THROW(BlendedTrigger({8, 8}, 0.2f), std::invalid_argument);
  EXPECT_THROW(BlendedTrigger({3, 8, 8}, 0.0f), std::invalid_argument);
  EXPECT_THROW(BlendedTrigger({3, 8, 8}, 1.0f), std::invalid_argument);
  BlendedTrigger t({3, 8, 8});
  EXPECT_THROW(t.apply(mid_gray({3, 4, 4})), std::invalid_argument);
}

TEST(LowFrequency, BoundedPerturbationTouchingWholeImage) {
  LowFrequencyTrigger trigger(0.2f, 1);
  const Tensor x = mid_gray({3, 12, 12});
  const Tensor y = trigger.apply(x);
  double total_shift = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_LE(std::fabs(y[i] - x[i]), 0.2f + 1e-5f);
    total_shift += std::fabs(y[i] - x[i]);
  }
  EXPECT_GT(total_shift / static_cast<double>(y.numel()), 0.01);
}

TEST(LowFrequency, SmoothAcrossNeighbours) {
  // The added wave changes slowly: neighbouring deltas differ little.
  LowFrequencyTrigger trigger(0.25f, 1);
  const Tensor x = mid_gray({1, 16, 16});
  const Tensor y = trigger.apply(x);
  for (std::int64_t h = 0; h < 16; ++h) {
    for (std::int64_t w = 0; w + 1 < 16; ++w) {
      const float d1 = y[h * 16 + w] - 0.5f;
      const float d2 = y[h * 16 + w + 1] - 0.5f;
      EXPECT_LT(std::fabs(d1 - d2), 0.12f);
    }
  }
}

TEST(LowFrequency, Validation) {
  EXPECT_THROW(LowFrequencyTrigger(0.0f, 1), std::invalid_argument);
  EXPECT_THROW(LowFrequencyTrigger(0.9f, 1), std::invalid_argument);
  EXPECT_THROW(LowFrequencyTrigger(0.2f, 0), std::invalid_argument);
}

TEST(Bpp, QuantizesToLevels) {
  BppTrigger trigger(4);
  Rng rng(2);
  data::SynthConfig cfg;
  cfg.height = cfg.width = 12;
  const Tensor x = data::render_synth_cifar_image(1, cfg, rng);
  const Tensor y = trigger.apply(x);
  // Every output value is one of the 4 quantization levels.
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const float scaled = y[i] * 3.0f;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-5f);
  }
}

TEST(Bpp, IdempotentOnQuantizedInput) {
  BppTrigger trigger(8);
  const Tensor x = mid_gray({3, 8, 8});
  const Tensor once = trigger.apply(x);
  const Tensor twice = trigger.apply(once);
  for (std::int64_t i = 0; i < once.numel(); ++i) {
    EXPECT_NEAR(once[i], twice[i], 1.0f / 7.0f + 1e-5f);
  }
  EXPECT_THROW(BppTrigger(1), std::invalid_argument);
  EXPECT_THROW(BppTrigger(500), std::invalid_argument);
}

TEST(Dynamic, PlacementDependsOnContent) {
  SampleSpecificTrigger trigger;
  // Two images with very different quadrant statistics should (with this
  // construction) hash to placements, and the placement must be one of the
  // four corner anchors.
  Rng rng(21);
  data::SynthConfig cfg;
  cfg.height = cfg.width = 12;
  bool saw_different = false;
  SampleSpecificTrigger::Placement first{};
  for (int i = 0; i < 8; ++i) {
    const Tensor img = data::render_synth_cifar_image(i % 10, cfg, rng);
    const auto p = trigger.placement_for(img);
    EXPECT_TRUE(p.y == 0 || p.y == 12 - 3);
    EXPECT_TRUE(p.x == 0 || p.x == 12 - 3);
    if (i == 0) {
      first = p;
    } else if (p.y != first.y || p.x != first.x ||
               p.inverted != first.inverted) {
      saw_different = true;
    }
  }
  EXPECT_TRUE(saw_different) << "trigger should vary across images";
}

TEST(Dynamic, DeterministicPerImage) {
  SampleSpecificTrigger trigger;
  Rng rng(22);
  data::SynthConfig cfg;
  cfg.height = cfg.width = 12;
  const Tensor img = data::render_synth_cifar_image(4, cfg, rng);
  const Tensor y1 = trigger.apply(img);
  const Tensor y2 = trigger.apply(img);
  for (std::int64_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(Dynamic, ChangesOnlyOneCornerPatch) {
  SampleSpecificTrigger trigger;
  const Tensor x = Tensor::full({3, 12, 12}, 0.4f);
  const Tensor y = trigger.apply(x);
  std::int64_t changed = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] != x[i]) ++changed;
  }
  EXPECT_GT(changed, 0);
  EXPECT_LE(changed, 3 * 3 * 3);  // one 3x3 patch across 3 channels
  EXPECT_THROW(SampleSpecificTrigger(0.0), std::invalid_argument);
}

TEST(Factory, MakesAllKnownTriggers) {
  const Shape shape{3, 12, 12};
  for (const char* name : {"badnet", "blended", "lf", "bpp", "dynamic"}) {
    const auto trigger = make_trigger(name, shape);
    ASSERT_NE(trigger, nullptr);
    EXPECT_EQ(trigger->name(), name);
    EXPECT_EQ(trigger->apply(mid_gray(shape)).shape(), shape);
  }
  EXPECT_THROW(make_trigger("unknown", shape), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Poisoning
// ---------------------------------------------------------------------------

data::ImageDataset small_clean_set(std::int64_t per_class) {
  Rng rng(3);
  data::SynthConfig cfg;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = per_class;
  cfg.test_per_class = 1;
  return data::make_synth_cifar(cfg, rng).train;
}

TEST(Poison, RatioAndTargetLabels) {
  const auto clean = small_clean_set(10);  // 100 examples
  BadNetsTrigger trigger;
  Rng rng(4);
  PoisonConfig cfg;
  cfg.poison_ratio = 0.2;
  cfg.target_class = 0;
  const auto poisoned = poison_training_set(clean, trigger, cfg, rng);

  ASSERT_EQ(poisoned.size(), clean.size());
  std::int64_t changed_labels = 0;
  for (std::size_t i = 0; i < poisoned.size(); ++i) {
    if (poisoned.label(i) != clean.label(i)) {
      ++changed_labels;
      EXPECT_EQ(poisoned.label(i), 0);
    }
  }
  EXPECT_EQ(changed_labels, 20);
}

TEST(Poison, OnlyNonTargetExamplesPoisoned) {
  const auto clean = small_clean_set(10);
  BadNetsTrigger trigger;
  Rng rng(5);
  PoisonConfig cfg;
  const auto poisoned = poison_training_set(clean, trigger, cfg, rng);
  // Target-class examples keep both image and label.
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean.label(i) == cfg.target_class) {
      EXPECT_EQ(poisoned.label(i), cfg.target_class);
      EXPECT_TRUE(
          poisoned.image(i).shares_storage_with(clean.image(i)));
    }
  }
}

TEST(Poison, Validation) {
  const auto clean = small_clean_set(2);
  BadNetsTrigger trigger;
  Rng rng(6);
  PoisonConfig bad;
  bad.poison_ratio = 1.0;
  EXPECT_THROW(poison_training_set(clean, trigger, bad, rng),
               std::invalid_argument);
  bad.poison_ratio = 0.95;  // more than the non-target fraction
  EXPECT_THROW(poison_training_set(clean, trigger, bad, rng),
               std::runtime_error);
  bad.poison_ratio = 0.1;
  bad.target_class = 99;
  EXPECT_THROW(poison_training_set(clean, trigger, bad, rng),
               std::invalid_argument);
}

TEST(TestSets, AsrAndRaConstruction) {
  const auto clean = small_clean_set(3);
  BadNetsTrigger trigger;
  const auto asr = make_asr_test_set(clean, trigger, 0);
  const auto ra = make_ra_test_set(clean, trigger, 0);

  // Target-class examples are excluded from both.
  EXPECT_EQ(asr.size(), clean.size() - 3);
  EXPECT_EQ(ra.size(), asr.size());
  for (std::size_t i = 0; i < asr.size(); ++i) {
    EXPECT_EQ(asr.label(i), 0);   // ASR labels are the target
    EXPECT_NE(ra.label(i), 0);    // RA labels are the true classes
  }
}

TEST(TestSets, SynthesizedBackdoorKeepsTrueLabels) {
  const auto clean = small_clean_set(2);
  BadNetsTrigger trigger;
  const auto synth = synthesize_backdoor_set(clean, trigger);
  ASSERT_EQ(synth.size(), clean.size());
  for (std::size_t i = 0; i < synth.size(); ++i) {
    EXPECT_EQ(synth.label(i), clean.label(i));
    // Image must actually carry the trigger (differ from the clean one).
    const Tensor diff = sub(synth.image(i), clean.image(i));
    EXPECT_GT(l1_norm(diff), 0.0f);
  }
}

}  // namespace
}  // namespace bd::attack
