// Unit tests for the nn module: parameter registration, state dicts,
// layer forward semantics, BatchNorm statistics, filter pruning masks,
// ANP hooks, SE block behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/module.h"
#include "nn/summary.h"
#include "tensor/ops.h"
#include "util/stats.h"

namespace bd::nn {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

TEST(Module, ParameterRegistration) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, /*bias=*/true, rng);
  const auto named = conv.named_parameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
  EXPECT_EQ(conv.parameter_count(), 8 * 3 * 3 * 3 + 8);
}

TEST(Module, SequentialHierarchicalNames) {
  Rng rng(2);
  Sequential seq;
  seq.emplace<Conv2d>(3, 4, 3, 1, 1, false, rng);
  seq.emplace<BatchNorm2d>(4);
  const auto named = seq.named_parameters();
  ASSERT_EQ(named.size(), 3u);  // conv weight + bn gamma/beta
  EXPECT_EQ(named[0].first, "layer0.weight");
  EXPECT_EQ(named[1].first, "layer1.gamma");
}

TEST(Module, StateDictRoundTrip) {
  Rng rng(3);
  Sequential a, b;
  a.emplace<Conv2d>(3, 4, 3, 1, 1, true, rng);
  a.emplace<BatchNorm2d>(4);
  b.emplace<Conv2d>(3, 4, 3, 1, 1, true, rng);
  b.emplace<BatchNorm2d>(4);

  const auto state = a.state_dict();
  EXPECT_TRUE(state.count("layer1.running_mean"));  // buffers included
  b.load_state_dict(state);

  const Tensor x = random_tensor({2, 3, 5, 5}, rng);
  b.set_training(false);
  a.set_training(false);
  const Tensor ya = a.forward(ag::Var(x)).value();
  const Tensor yb = b.forward(ag::Var(x)).value();
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Module, LoadStateDictRejectsMissingAndMismatched) {
  Rng rng(4);
  Conv2d conv(3, 4, 3, 1, 1, false, rng);
  EXPECT_THROW(conv.load_state_dict({}), std::runtime_error);
  std::map<std::string, Tensor> bad{{"weight", Tensor({1, 2})}};
  EXPECT_THROW(conv.load_state_dict(bad), std::runtime_error);
}

TEST(Module, TrainingModePropagates) {
  Rng rng(5);
  Sequential seq;
  auto& bn = seq.emplace<BatchNorm2d>(4);
  seq.set_training(false);
  EXPECT_FALSE(bn.training());
  seq.set_training(true);
  EXPECT_TRUE(bn.training());
}

TEST(Module, ModulesOfTypeFindsNested) {
  Rng rng(6);
  Sequential outer;
  auto& inner = outer.emplace<Sequential>();
  inner.emplace<Conv2d>(3, 4, 3, 1, 1, false, rng);
  outer.emplace<Conv2d>(4, 8, 3, 1, 1, false, rng);
  EXPECT_EQ(outer.modules_of_type<Conv2d>().size(), 2u);
  EXPECT_EQ(outer.modules_of_type<BatchNorm2d>().size(), 0u);
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(7);
  Linear fc(3, 2, rng);
  fc.weight().mutable_value() = Tensor({3, 2}, {1, 0, 0, 1, 1, 1});
  fc.bias().mutable_value() = Tensor({2}, {0.5f, -0.5f});
  const Tensor x({1, 3}, {1, 2, 3});
  const Tensor y = fc.forward(ag::Var(x)).value();
  EXPECT_FLOAT_EQ(y.at2(0, 0), 1 + 3 + 0.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 2 + 3 - 0.5f);
}

TEST(Linear, AutoFlattens4d) {
  Rng rng(8);
  Linear fc(12, 2, rng);
  const Tensor x = random_tensor({2, 3, 2, 2}, rng);
  EXPECT_EQ(fc.forward(ag::Var(x)).value().shape(), (Shape{2, 2}));
  EXPECT_THROW(fc.forward(ag::Var(Tensor({2, 5}))), std::invalid_argument);
}

TEST(BatchNorm, NormalizesBatchInTraining) {
  Rng rng(9);
  BatchNorm2d bn(2);
  bn.set_training(true);
  const Tensor x = random_tensor({4, 2, 3, 3}, rng);
  const Tensor y = bn.forward(ag::Var(x)).value();

  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  const Tensor m = reduce_mean(y, {0, 2, 3}, false);
  for (std::int64_t c = 0; c < 2; ++c) EXPECT_NEAR(m[c], 0.0f, 1e-4);
  const Tensor v = reduce_mean(mul(y, y), {0, 2, 3}, false);
  for (std::int64_t c = 0; c < 2; ++c) EXPECT_NEAR(v[c], 1.0f, 1e-2);
}

TEST(BatchNorm, RunningStatsConvergeAndUsedInEval) {
  Rng rng(10);
  BatchNorm2d bn(1, 1e-5f, 0.5f);
  bn.set_training(true);
  // Feed a constant-statistics batch repeatedly: mean 10, tiny variance.
  Tensor x({8, 1, 2, 2});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = 10.0f + 0.01f * static_cast<float>(i % 3);
  }
  for (int it = 0; it < 12; ++it) bn.forward(ag::Var(x));
  EXPECT_NEAR(bn.running_mean()[0], 10.0f, 0.1f);

  bn.set_training(false);
  const Tensor y = bn.forward(ag::Var(x)).value();
  // Eval output should be near zero (input ~ running mean).
  EXPECT_NEAR(y[0], 0.0f, 1.5f);
}

TEST(BatchNorm, ChannelMaskScalesOutput) {
  BatchNorm2d bn(2);
  bn.set_training(false);
  Tensor x = Tensor::ones({1, 2, 1, 1});
  const Tensor base = bn.forward(ag::Var(x)).value();

  ag::Var mask(Tensor({2}, {0.0f, 1.0f}));
  bn.set_channel_mask(mask);
  const Tensor masked = bn.forward(ag::Var(x)).value();
  EXPECT_FLOAT_EQ(masked[0], 0.0f);            // channel 0 silenced
  EXPECT_FLOAT_EQ(masked[1], base[1]);         // channel 1 untouched
  bn.clear_channel_mask();
  const Tensor restored = bn.forward(ag::Var(x)).value();
  EXPECT_FLOAT_EQ(restored[0], base[0]);
}

TEST(BatchNorm, SuppressChannelZeroesOutput) {
  BatchNorm2d bn(2);
  bn.set_training(false);
  bn.suppress_channel(0);
  Tensor x = Tensor::full({1, 2, 1, 1}, 3.0f);
  const Tensor y = bn.forward(ag::Var(x)).value();
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_NE(y[1], 0.0f);
  EXPECT_THROW(bn.suppress_channel(5), std::out_of_range);
}

TEST(Conv2d, PruneFilterZeroesAndSticks) {
  Rng rng(11);
  Conv2d conv(2, 3, 3, 1, 1, /*bias=*/true, rng);
  conv.bias().mutable_value() = Tensor({3}, {1, 2, 3});
  conv.prune_filter(1);
  EXPECT_TRUE(conv.is_filter_pruned(1));
  EXPECT_EQ(conv.pruned_filter_count(), 1);

  // Filter 1 weights and bias are zero.
  const Tensor& w = conv.weight().value();
  for (std::int64_t i = 0; i < 2 * 3 * 3; ++i) {
    EXPECT_EQ(w[1 * 2 * 9 + i], 0.0f);
  }
  EXPECT_EQ(conv.bias().value()[1], 0.0f);

  // Simulate an optimizer writing junk back; masks re-zero it.
  conv.weight().mutable_value().fill(7.0f);
  conv.bias().mutable_value().fill(7.0f);
  conv.enforce_filter_masks();
  EXPECT_EQ(conv.weight().value()[1 * 2 * 9], 0.0f);
  EXPECT_EQ(conv.weight().value()[0], 7.0f);  // other filters untouched
  EXPECT_EQ(conv.bias().value()[1], 0.0f);

  // Pruned filter produces an all-zero output channel.
  const Tensor x = random_tensor({1, 2, 4, 4}, rng);
  const Tensor y = conv.forward(ag::Var(x)).value();
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(y[16 + i], 0.0f);

  conv.unprune_filter(1);
  EXPECT_FALSE(conv.is_filter_pruned(1));
  EXPECT_THROW(conv.prune_filter(3), std::out_of_range);
  EXPECT_THROW(conv.unprune_filter(-1), std::out_of_range);
}

TEST(SEBlock, OutputBoundedByInput) {
  Rng rng(12);
  SEBlock se(4, 2, rng);
  const Tensor x = Tensor::full({2, 4, 3, 3}, 2.0f);
  const Tensor y = se.forward(ag::Var(x)).value();
  ASSERT_EQ(y.shape(), x.shape());
  // Hard-sigmoid attention is in [0,1], so |y| <= |x|.
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_LE(std::fabs(y[i]), 2.0f + 1e-5f);
    EXPECT_GE(y[i], 0.0f);
  }
}

TEST(Pooling, ModulesForwardShapes) {
  Rng rng(13);
  const Tensor x = random_tensor({2, 3, 8, 8}, rng);
  MaxPool2d mp({2, 2, 0});
  EXPECT_EQ(mp.forward(ag::Var(x)).value().shape(), (Shape{2, 3, 4, 4}));
}

TEST(Summary, TreeWithPruneAnnotations) {
  Rng rng(15);
  Sequential seq;
  auto& conv = seq.emplace<Conv2d>(3, 4, 3, 1, 1, false, rng);
  seq.emplace<BatchNorm2d>(4);

  const std::string before = summarize(seq, "net");
  EXPECT_NE(before.find("net: Sequential"), std::string::npos);
  EXPECT_NE(before.find("layer0: Conv2d"), std::string::npos);
  EXPECT_NE(before.find("108 params"), std::string::npos);  // 4*3*9
  EXPECT_EQ(before.find("pruned"), std::string::npos);
  EXPECT_EQ(total_pruned_filters(seq), 0);

  conv.prune_filter(2);
  const std::string after = summarize(seq, "net");
  EXPECT_NE(after.find("[1/4 filters pruned]"), std::string::npos);
  EXPECT_EQ(total_pruned_filters(seq), 1);
}

TEST(Init, KaimingStdDevScalesWithFanIn) {
  Rng rng(14);
  const Tensor w = kaiming_normal({64, 16, 3, 3}, 16 * 9, rng);
  RunningStat s;
  for (std::int64_t i = 0; i < w.numel(); ++i) s.add(w[i]);
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0 / (16.0 * 9.0)), 0.01);
}

}  // namespace
}  // namespace bd::nn
