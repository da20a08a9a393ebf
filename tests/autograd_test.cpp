// Autograd engine tests: every differentiable op is validated against
// central finite differences, plus graph-mechanics tests (accumulation,
// no-grad scope, detach, reuse of a node in two branches, frozen
// parameters).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/layers.h"
#include "robust/cancel.h"
#include "tensor/pool.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace bd::ag {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng, float lo = -1.0f,
                     float hi = 1.0f) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

/// Checks d(fn)/d(inputs[k]) against central differences for every input.
void check_gradients(
    const std::function<Var(const std::vector<Var>&)>& fn,
    std::vector<Tensor> input_values, double tolerance = 2e-2,
    float epsilon = 1e-3f) {
  // Analytic gradients.
  std::vector<Var> inputs;
  inputs.reserve(input_values.size());
  for (auto& v : input_values) {
    inputs.emplace_back(v.clone(), /*requires_grad=*/true);
  }
  Var out = fn(inputs);
  ASSERT_EQ(out.value().numel(), 1) << "gradient check needs scalar output";
  out.backward();

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ASSERT_TRUE(inputs[k].has_grad()) << "input " << k << " got no gradient";
    const Tensor& analytic = inputs[k].grad();
    for (std::int64_t i = 0; i < input_values[k].numel(); ++i) {
      auto eval_at = [&](float delta) {
        std::vector<Var> probe;
        probe.reserve(input_values.size());
        for (std::size_t j = 0; j < input_values.size(); ++j) {
          Tensor t = input_values[j].clone();
          if (j == k) t[i] += delta;
          probe.emplace_back(std::move(t), false);
        }
        NoGradGuard guard;
        return static_cast<double>(fn(probe).value()[0]);
      };
      const double numeric =
          (eval_at(epsilon) - eval_at(-epsilon)) / (2.0 * epsilon);
      EXPECT_NEAR(analytic[i], numeric, tolerance)
          << "input " << k << " element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Graph mechanics
// ---------------------------------------------------------------------------

TEST(Graph, LeafWithoutGradSkipsGraph) {
  Var a(Tensor::scalar(2.0f), false);
  Var b(Tensor::scalar(3.0f), false);
  Var c = mul(a, b);
  EXPECT_FALSE(c.requires_grad());
}

TEST(Graph, BackwardRequiresScalar) {
  Var a(Tensor({2}, {1, 2}), true);
  Var b = mul_scalar(a, 2.0f);
  EXPECT_THROW(b.backward(), std::logic_error);
}

TEST(Graph, GradAccumulatesAcrossBranches) {
  Var a(Tensor::scalar(3.0f), true);
  Var out = add(mul(a, a), a);  // a^2 + a -> d/da = 2a + 1 = 7
  out.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 7.0f);
}

TEST(Graph, ZeroGradClears) {
  Var a(Tensor::scalar(2.0f), true);
  mul(a, a).backward();
  EXPECT_TRUE(a.has_grad());
  a.zero_grad();
  EXPECT_FALSE(a.has_grad());
}

TEST(Graph, NoGradGuardBlocksRecording) {
  Var a(Tensor::scalar(2.0f), true);
  NoGradGuard guard;
  Var b = mul(a, a);
  EXPECT_FALSE(b.requires_grad());
}

TEST(Graph, DetachStopsGradient) {
  Var a(Tensor::scalar(2.0f), true);
  Var d = mul(a.detach(), a);  // d/da through one path only = 2
  d.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(Graph, BackwardTwiceAccumulates) {
  Var a(Tensor::scalar(2.0f), true);
  Var b = mul(a, a);
  b.backward();
  const float g1 = a.grad()[0];
  // A second graph accumulates onto the same leaf grad.
  Var c = mul(a, a);
  c.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f * g1);
}

// A node that was one pass's root is interior in the next: it starts that
// pass with no gradient, so x.grad is 1 + 2, not 1 + (1 + 2).
TEST(Graph, EarlierRootStartsLaterPassWithoutGradient) {
  Var x(Tensor({3}, {1.0f, 2.0f, 3.0f}), true);
  Var r = sum_all(x);
  r.backward();
  mul_scalar(r, 2.0f).backward();
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(x.grad()[i], 3.0f) << i;
}

// A node's value is computed when it is built: replacing an input leaf's
// tensor afterwards leaves it as it was.
TEST(Graph, ValueIsFixedWhenBuilt) {
  Var x(Tensor({2}, {1.5f, -2.0f}), true);
  Var d(Tensor::zeros({2}), true);
  Var y = mul(x, add_scalar(d, 1.0f));
  d.mutable_value() = Tensor::ones({2});
  for (std::int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(y.value()[i], x.value()[i]) << i;
  }
}

// A node built without gradient recording never runs backward, so it keeps
// no input edges: its inputs are freed as soon as their Vars are.
TEST(Graph, NoGradNodeHoldsNoInputEdges) {
  Var x(Tensor({2}, {1.0f, 2.0f}), true);
  NoGradGuard guard;
  Var y = relu(mul_scalar(x, 2.0f));
  EXPECT_TRUE(y.node()->inputs.empty());
  EXPECT_EQ(y.value()[1], 4.0f);
}

// Max-pool keeps its argmax only where a backward may read it: a no-grad
// forward gives the same output bits and leaves the node's argmax empty.
TEST(Graph, NoGradMaxPoolKeepsNoArgmax) {
  Rng rng(7);
  const Tensor x = random_tensor({2, 3, 6, 6}, rng);
  const Pool2dSpec spec{3, 2, 1};
  const MaxPoolResult kept = maxpool2d_forward(x, spec);
  const MaxPoolResult bare = maxpool2d_forward(x, spec, false);
  EXPECT_TRUE(bare.argmax.empty());
  ASSERT_EQ(kept.argmax.size(),
            static_cast<std::size_t>(kept.output.numel()));
  ASSERT_EQ(bare.output.shape(), kept.output.shape());
  EXPECT_EQ(std::memcmp(bare.output.data(), kept.output.data(),
                        sizeof(float) * kept.output.numel()),
            0);

  Var in(x.clone(), true);
  Var graded = maxpool2d(in, spec);
  ASSERT_NE(graded.node()->argmax, nullptr);
  EXPECT_EQ(*graded.node()->argmax, kept.argmax);
  NoGradGuard guard;
  Var plain = maxpool2d(in, spec);
  EXPECT_EQ(plain.node()->argmax, nullptr);
  EXPECT_EQ(std::memcmp(plain.value().data(), kept.output.data(),
                        sizeof(float) * kept.output.numel()),
            0);
}

// An interior gradient is its first contribution's tensor itself, so it can
// share storage with another node's: here `s = a + b` hands one tensor to
// both a and b. b then gets a second contribution while a is still waiting
// for its own, so an in-place accumulate into b would also change a.
// Reverse order of the pass: L, top, s, mid, p, a, x, b, y.
TEST(Graph, SharedGradientAccumulatesOutOfPlace) {
  Var x(Tensor({2}, {1.0f, -2.0f}), true);
  Var y(Tensor({2}, {0.5f, 4.0f}), true);
  Var a = mul_scalar(x, 2.0f);
  Var b = mul_scalar(y, 3.0f);
  Var s = add(a, b);
  Var p = mul_scalar(a, 5.0f);
  Var mid = add(b, p);
  Var top = add(mid, s);
  sum_all(top).backward();
  // dL/da = 1 (via s) + 5 (via p); dL/db = 1 (via s) + 1 (via mid).
  for (std::int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(x.grad()[i], 2.0f * 6.0f) << i;
    EXPECT_EQ(y.grad()[i], 3.0f * 2.0f) << i;
  }
}

// The pass records the most interior-gradient bytes held at once. On this
// chain, r's [4] gradient (16 B) is still held when m's [4, 8] one (128 B)
// arrives; the root and the leaf are not counted.
TEST(Graph, PeakBytesCountInteriorGradientsHeldAtOnce) {
  GradArena& arena = GradArena::local();
  arena.reset_stats();
  Var x(Tensor::ones({4, 8}), true);
  Var m = mul_scalar(x, 2.0f);
  sum_all(reduce_sum(m, {1}, /*keepdim=*/false)).backward();
  EXPECT_EQ(arena.stats().last_peak_bytes, 144);
  EXPECT_EQ(arena.stats().max_peak_bytes, 144);

  sum_all(mul_scalar(x, 3.0f)).backward();  // one [4, 8] gradient
  EXPECT_EQ(arena.stats().last_peak_bytes, 128);
  EXPECT_EQ(arena.stats().max_peak_bytes, 144);
}

// ---------------------------------------------------------------------------
// Finite-difference checks: elementwise and scalar ops
// ---------------------------------------------------------------------------

TEST(GradCheck, AddSubMulDiv) {
  Rng rng(1);
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(add(in[0], in[1]));
      },
      {random_tensor({2, 3}, rng), random_tensor({2, 3}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(sub(in[0], in[1]));
      },
      {random_tensor({2, 3}, rng), random_tensor({2, 3}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(mul(in[0], in[1]));
      },
      {random_tensor({2, 3}, rng), random_tensor({2, 3}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(div(in[0], in[1]));
      },
      {random_tensor({2, 3}, rng), random_tensor({2, 3}, rng, 1.0f, 2.0f)});
}

TEST(GradCheck, BroadcastBinary) {
  Rng rng(2);
  // (N,C,H,W) * (1,C,1,1): the BatchNorm/SE pattern.
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(mul(in[0], in[1]));
      },
      {random_tensor({2, 3, 2, 2}, rng), random_tensor({1, 3, 1, 1}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(add(in[0], in[1]));
      },
      {random_tensor({2, 3}, rng), random_tensor({3}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(div(in[0], in[1]));
      },
      {random_tensor({2, 3, 2, 2}, rng),
       random_tensor({1, 3, 1, 1}, rng, 1.0f, 2.0f)});
}

TEST(GradCheck, UnaryOps) {
  Rng rng(3);
  check_gradients(
      [](const std::vector<Var>& in) { return sum_all(sqrt(in[0])); },
      {random_tensor({2, 3}, rng, 0.5f, 2.0f)});
  check_gradients(
      [](const std::vector<Var>& in) { return sum_all(neg(in[0])); },
      {random_tensor({2, 3}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) { return sum_all(add_scalar(in[0], 2.5f)); },
      {random_tensor({2, 3}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) { return sum_all(mul_scalar(in[0], -1.5f)); },
      {random_tensor({2, 3}, rng)});
}

TEST(GradCheck, Activations) {
  Rng rng(4);
  // Sample away from activation kinks (|x| in [0.2, 1]).
  Tensor x({3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float mag = static_cast<float>(rng.uniform(0.2, 1.0));
    x[i] = (i % 2 == 0) ? mag : -mag;
  }
  for (auto op : {relu, sigmoid, hardsigmoid, hardswish}) {
    check_gradients(
        [op](const std::vector<Var>& in) { return sum_all(op(in[0])); }, {x});
  }
}

TEST(GradCheck, ReductionsAndReshape) {
  Rng rng(5);
  check_gradients(
      [](const std::vector<Var>& in) { return mean_all(in[0]); },
      {random_tensor({2, 3, 2, 2}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(reduce_mean(in[0], {0, 2, 3}, true));
      },
      {random_tensor({2, 3, 2, 2}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(reduce_sum(in[0], {1}, false));
      },
      {random_tensor({2, 4}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(mul(reshape(in[0], {4, 3}), reshape(in[0], {4, 3})));
      },
      {random_tensor({2, 2, 3}, rng)});
}

TEST(GradCheck, Matmul) {
  Rng rng(6);
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(matmul(in[0], in[1]));
      },
      {random_tensor({3, 4}, rng), random_tensor({4, 2}, rng)});
}

TEST(GradCheck, Conv2d) {
  Rng rng(7);
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(conv2d(in[0], in[1], in[2], {1, 1}));
      },
      {random_tensor({2, 2, 4, 4}, rng), random_tensor({3, 2, 3, 3}, rng),
       random_tensor({3}, rng)});
}

TEST(GradCheck, Conv2dStrided) {
  Rng rng(8);
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(conv2d(in[0], in[1], Var(), {2, 1}));
      },
      {random_tensor({1, 2, 5, 5}, rng), random_tensor({2, 2, 3, 3}, rng)});
}

TEST(GradCheck, DepthwiseConv2d) {
  Rng rng(9);
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(depthwise_conv2d(in[0], in[1], in[2], {1, 1}));
      },
      {random_tensor({2, 3, 4, 4}, rng), random_tensor({3, 1, 3, 3}, rng),
       random_tensor({3}, rng)});
}

TEST(GradCheck, Pooling) {
  Rng rng(10);
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(global_avgpool(in[0]));
      },
      {random_tensor({2, 3, 3, 3}, rng)});
  // Maxpool: use well-separated values so argmax is stable under epsilon.
  Tensor x({1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i * i);
  check_gradients(
      [](const std::vector<Var>& in) {
        return sum_all(maxpool2d(in[0], {2, 2, 0}));
      },
      {x});
}

TEST(GradCheck, LossFunctions) {
  Rng rng(11);
  const std::vector<std::int64_t> labels{1, 0, 2};
  check_gradients(
      [&labels](const std::vector<Var>& in) {
        return cross_entropy(in[0], labels);
      },
      {random_tensor({3, 4}, rng)});
  check_gradients(
      [&labels](const std::vector<Var>& in) {
        return nll_loss(log_softmax(in[0]), labels);
      },
      {random_tensor({3, 4}, rng)});
  check_gradients(
      [](const std::vector<Var>& in) { return mse_loss(in[0], in[1]); },
      {random_tensor({2, 3}, rng), random_tensor({2, 3}, rng)});
}

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits over 4 classes -> CE = log(4).
  Var logits(Tensor::zeros({2, 4}));
  Var loss = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.value()[0], std::log(4.0), 1e-5);
}

TEST(Loss, NllRejectsBadLabels) {
  Var lp(Tensor::zeros({2, 3}));
  EXPECT_THROW(nll_loss(lp, {0, 5}), std::invalid_argument);
  EXPECT_THROW(nll_loss(lp, {0}), std::invalid_argument);
}

TEST(Composite, TwoLayerNetworkGradient) {
  // End-to-end check through matmul -> relu -> matmul -> CE.
  Rng rng(12);
  const std::vector<std::int64_t> labels{0, 1};
  check_gradients(
      [&labels](const std::vector<Var>& in) {
        Var h = relu(matmul(in[0], in[1]));
        return cross_entropy(matmul(h, in[2]), labels);
      },
      {random_tensor({2, 3}, rng), random_tensor({3, 4}, rng),
       random_tensor({4, 2}, rng)});
}

// ---------------------------------------------------------------------------
// Frozen parameters: backward computes only the gradients someone reads
// ---------------------------------------------------------------------------

// Conv2d -> BatchNorm2d (training mode: sub, mul, div) -> Linear (matmul).
struct FrozenFixture {
  Rng rng{21};
  nn::Sequential net;
  Tensor images = random_tensor({4, 2, 4, 4}, rng);
  std::vector<std::int64_t> labels{0, 3, 1, 4};

  FrozenFixture() {
    net.emplace<nn::Conv2d>(2, 3, 3, 1, 1, /*bias=*/true, rng);
    net.emplace<nn::BatchNorm2d>(3);
    net.emplace<nn::Linear>(3 * 4 * 4, 5, rng);
  }

  Tensor input_grad() {
    Var x(images.clone(), /*requires_grad=*/true);
    cross_entropy(net.forward(x), labels).backward();
    return x.grad();
  }
};

TEST(Frozen, ParametersGetNoGradientAndInputGradientKeepsItsBits) {
  FrozenFixture f;
  const Tensor full = f.input_grad();
  for (const auto& [name, p] : f.net.named_parameters()) {
    ASSERT_TRUE(p->has_grad()) << name;
  }
  f.net.zero_grad();
  Tensor frozen_grad;
  {
    const nn::FrozenParameters frozen(f.net);
    frozen_grad = f.input_grad();
  }
  for (const auto& [name, p] : f.net.named_parameters()) {
    EXPECT_FALSE(p->has_grad()) << name;
  }
  ASSERT_EQ(frozen_grad.shape(), full.shape());
  EXPECT_EQ(std::memcmp(frozen_grad.data(), full.data(),
                        full.numel() * sizeof(float)),
            0);
}

TEST(Frozen, RestoresRequiresGradAfterScopeAndAfterThrow) {
  FrozenFixture f;
  const std::vector<Var*> params = f.net.parameters();
  params.back()->set_requires_grad(false);  // restored as saved, not as true
  const auto expect_restored = [&params](const char* when) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i]->requires_grad(), i + 1 < params.size())
          << when << ", parameter " << i;
    }
  };
  {
    const nn::FrozenParameters frozen(f.net);
    for (const Var* p : params) EXPECT_FALSE(p->requires_grad());
  }
  expect_restored("after the scope");

  robust::CancelSource source;
  source.cancel("stop");
  const robust::CancelScope scope(source.token());
  EXPECT_THROW(
      {
        const nn::FrozenParameters frozen(f.net);
        robust::poll_cancellation("frozen test");
      },
      robust::Cancelled);
  expect_restored("after a throw");
}

TEST(Frozen, SetRequiresGradOnlyOnLeaves) {
  Var a(Tensor::scalar(2.0f), /*requires_grad=*/false);
  a.set_requires_grad(true);
  Var b = mul(a, a);
  EXPECT_TRUE(b.requires_grad());
  EXPECT_THROW(b.set_requires_grad(false), std::logic_error);
  EXPECT_THROW(Var().set_requires_grad(true), std::logic_error);
}

}  // namespace
}  // namespace bd::ag
