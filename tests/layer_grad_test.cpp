// Finite-difference gradient checks THROUGH trainable layers: BatchNorm in
// training and eval mode, the SE block, depthwise conv layers, and a full
// residual block. These guard the exact gradients the unlearning-loss
// scoring consumes. BatchNorm's op is also checked bit for bit against
// the same computation as a graph of broadcast ops, its reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "models/preact_resnet.h"
#include "nn/layers.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace bd::nn {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng, float scale = 1.0f) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal()) * scale;
  }
  return t;
}

/// Central-difference check of d(sum(module(x)))/d(param) for every
/// registered parameter of `module`, plus the input gradient.
void check_module_gradients(Module& module, const Tensor& x,
                            double tolerance = 5e-2, float epsilon = 1e-2f) {
  auto loss_value = [&module](const Tensor& input) {
    ag::NoGradGuard guard;
    return sum_all(module.forward(ag::Var(input)).value());
  };

  // Analytic gradients.
  module.zero_grad();
  ag::Var vx(x.clone(), /*requires_grad=*/true);
  ag::Var out = ag::sum_all(module.forward(vx));
  out.backward();

  // Input gradient (spot-check three coordinates).
  ASSERT_TRUE(vx.has_grad());
  for (const std::int64_t i : {std::int64_t{0}, x.numel() / 2, x.numel() - 1}) {
    Tensor xp = x.clone(), xm = x.clone();
    xp[i] += epsilon;
    xm[i] -= epsilon;
    const double numeric =
        (loss_value(xp) - loss_value(xm)) / (2.0 * epsilon);
    EXPECT_NEAR(vx.grad()[i], numeric, tolerance) << "input grad at " << i;
  }

  // Parameter gradients (spot-check first/middle/last entry of each).
  for (auto& [name, param] : module.named_parameters()) {
    ASSERT_TRUE(param->has_grad()) << name << " received no gradient";
    Tensor& w = param->mutable_value();
    for (const std::int64_t i :
         {std::int64_t{0}, w.numel() / 2, w.numel() - 1}) {
      const float saved = w[i];
      w[i] = saved + epsilon;
      const double up = loss_value(x);
      w[i] = saved - epsilon;
      const double down = loss_value(x);
      w[i] = saved;
      const double numeric = (up - down) / (2.0 * epsilon);
      EXPECT_NEAR(param->grad()[i], numeric, tolerance)
          << name << " grad at " << i;
    }
  }
}

TEST(LayerGrad, Conv2dLayer) {
  Rng rng(1);
  Conv2d conv(2, 3, 3, 1, 1, /*bias=*/true, rng);
  check_module_gradients(conv, random_tensor({2, 2, 5, 5}, rng, 0.5f));
}

TEST(LayerGrad, DepthwiseConvLayer) {
  Rng rng(2);
  DepthwiseConv2d dw(3, 3, 1, 1, /*bias=*/true, rng);
  check_module_gradients(dw, random_tensor({2, 3, 5, 5}, rng, 0.5f));
}

TEST(LayerGrad, LinearLayer) {
  Rng rng(3);
  Linear fc(6, 4, rng);
  check_module_gradients(fc, random_tensor({3, 6}, rng, 0.5f));
}

TEST(LayerGrad, BatchNormTrainingMode) {
  // The hardest composite path: gradients flow through batch mean AND
  // variance. Note: the check perturbs one input coordinate, which changes
  // the batch statistics - the analytic path covers that coupling.
  Rng rng(4);
  BatchNorm2d bn(3);
  bn.set_training(true);
  // Non-trivial gamma/beta so their gradients are distinguishable.
  bn.gamma().mutable_value() = Tensor({3}, {1.5f, 0.5f, -0.8f});
  bn.beta().mutable_value() = Tensor({3}, {0.1f, -0.2f, 0.3f});

  // sum(BN(x)) has ~zero input gradient by mean-invariance; use a weighted
  // sum instead to expose the full Jacobian.
  const Tensor x = random_tensor({4, 3, 3, 3}, rng);
  const Tensor weights = random_tensor(x.shape(), rng);

  auto loss_value = [&bn, &weights](const Tensor& input) {
    ag::NoGradGuard guard;
    // Keep running stats frozen for the probe evaluations.
    const Tensor rm = bn.running_mean().clone();
    const Tensor rv = bn.running_var().clone();
    const float v = sum_all(mul(bn.forward(ag::Var(input)).value(), weights));
    bn.running_mean() = rm;
    bn.running_var() = rv;
    return v;
  };

  bn.zero_grad();
  ag::Var vx(x.clone(), true);
  ag::Var out = ag::sum_all(ag::mul(bn.forward(vx), ag::Var(weights)));
  out.backward();

  const float epsilon = 1e-2f;
  for (const std::int64_t i : {std::int64_t{0}, x.numel() / 2}) {
    Tensor xp = x.clone(), xm = x.clone();
    xp[i] += epsilon;
    xm[i] -= epsilon;
    const double numeric =
        (loss_value(xp) - loss_value(xm)) / (2.0 * epsilon);
    EXPECT_NEAR(vx.grad()[i], numeric, 5e-2) << "input grad at " << i;
  }
  // Gamma/beta gradients.
  for (auto& [name, param] : bn.named_parameters()) {
    Tensor& w = param->mutable_value();
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      const float saved = w[i];
      w[i] = saved + epsilon;
      const double up = loss_value(x);
      w[i] = saved - epsilon;
      const double down = loss_value(x);
      w[i] = saved;
      EXPECT_NEAR(param->grad()[i], (up - down) / (2.0 * epsilon), 5e-2)
          << name << "[" << i << "]";
    }
  }
}

TEST(LayerGrad, BatchNormEvalMode) {
  Rng rng(5);
  BatchNorm2d bn(2);
  bn.set_training(false);
  bn.running_mean() = Tensor({2}, {0.3f, -0.2f});
  bn.running_var() = Tensor({2}, {1.5f, 0.7f});
  check_module_gradients(bn, random_tensor({2, 2, 3, 3}, rng));
}

TEST(LayerGrad, SEBlock) {
  Rng rng(6);
  SEBlock se(4, 2, rng);
  // Keep activations away from hard-sigmoid kinks with a mild input.
  check_module_gradients(se, random_tensor({2, 4, 3, 3}, rng, 0.4f));
}

TEST(LayerGrad, PreActResidualBlock) {
  Rng rng(7);
  models::PreActBlock block(3, 4, /*stride=*/2, rng);
  block.set_training(false);  // frozen statistics: deterministic check
  // Small epsilon: the block contains ReLUs and central differences across
  // their kinks would otherwise dominate the error.
  check_module_gradients(block, random_tensor({2, 3, 6, 6}, rng, 0.5f),
                         /*tolerance=*/6e-2, /*epsilon=*/2e-3f);
}

TEST(LayerGrad, BatchNormWithAnpMaskGradientFlowsToMask) {
  // The ANP mask is a leaf the defense optimizes; its gradient must arrive.
  Rng rng(8);
  BatchNorm2d bn(3);
  bn.set_training(false);
  ag::Var mask(Tensor::ones({3}), /*requires_grad=*/true);
  bn.set_channel_mask(mask);

  const Tensor x = random_tensor({2, 3, 3, 3}, rng);
  ag::Var out = ag::sum_all(bn.forward(ag::Var(x)));
  out.backward();
  ASSERT_TRUE(mask.has_grad());
  // d(sum)/d(mask_c) = sum over that channel of the unmasked affine output.
  bn.clear_channel_mask();
  const Tensor unmasked = bn.forward(ag::Var(x)).value();
  for (std::int64_t c = 0; c < 3; ++c) {
    double expected = 0.0;
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t j = 0; j < 9; ++j) {
        expected += unmasked[(n * 3 + c) * 9 + j];
      }
    }
    EXPECT_NEAR(mask.grad()[c], expected, 1e-3);
  }
}

// ---------------------------------------------------------------------------
// BatchNorm's op against the composite, bit for bit
// ---------------------------------------------------------------------------

// BatchNorm as a graph of about ten broadcast ops: the reference whose
// every bit the op keeps. Training updates the running statistics from the
// batch's as the module does.
ag::Var composite_batch_norm(const ag::Var& x, const ag::Var& gamma,
                             const ag::Var& delta, const ag::Var& beta,
                             const ag::Var& mask, bool training, float eps,
                             float momentum, Tensor& running_mean,
                             Tensor& running_var) {
  const std::int64_t channels = x.shape()[1];
  const Shape cshape{1, channels, 1, 1};
  ag::Var scale = gamma;
  if (delta.defined()) {
    scale = ag::mul(scale, ag::add_scalar(delta, 1.0f));
  }
  const ag::Var scale4 = ag::reshape(scale, cshape);
  const ag::Var beta4 = ag::reshape(beta, cshape);
  const ag::Var mask4 =
      mask.defined() ? ag::reshape(mask, cshape) : ag::Var();
  ag::Var xhat;
  if (training) {
    const ag::Var mean = ag::reduce_mean(x, {0, 2, 3}, /*keepdim=*/true);
    const ag::Var centered = ag::sub(x, mean);
    const ag::Var var =
        ag::reduce_mean(ag::mul(centered, centered), {0, 2, 3}, true);
    xhat = ag::div(centered, ag::sqrt(ag::add_scalar(var, eps)));
    const Tensor batch_mean = mean.value().reshape({channels});
    const Tensor batch_var = var.value().reshape({channels});
    for (std::int64_t c = 0; c < channels; ++c) {
      running_mean[c] =
          (1.0f - momentum) * running_mean[c] + momentum * batch_mean[c];
      running_var[c] =
          (1.0f - momentum) * running_var[c] + momentum * batch_var[c];
    }
  } else {
    const ag::Var rm(running_mean.reshape(cshape));
    const ag::Var rv(running_var.reshape(cshape));
    xhat = ag::div(ag::sub(x, rm), ag::sqrt(ag::add_scalar(rv, eps)));
  }
  ag::Var out = ag::add(ag::mul(xhat, scale4), beta4);
  if (mask4.defined()) out = ag::mul(out, mask4);
  return out;
}

// Where x's other consumer sits, which decides whether x already holds a
// gradient when BatchNorm's backward reaches it.
enum class Consumer {
  kNone,
  kShortcut,  // bn(x) + x: the add hands x its gradient first
  kLater,     // 0.5x + bn(x): BatchNorm's backward runs before 0.5x's
};

struct BnCase {
  Shape shape;
  bool training = true, delta = false, mask = false;
  Consumer consumer = Consumer::kNone;
  bool interior_x = false;  // x is an op's output rather than a leaf
  bool x_grad = true;       // false: x is a grad-free input, as at the stem
  bool frozen = false;      // gamma and beta do not require grad
  int backwards = 1;        // 2: leaves hold the first pass's gradients
  bool special = false;     // -0, 0 and inf among the values

  std::string name() const {
    return shape_string(shape) + (training ? " train" : " eval") +
           (delta ? " delta" : "") + (mask ? " mask" : "") +
           " consumer=" + std::to_string(static_cast<int>(consumer)) +
           (interior_x ? " interior" : "") + (x_grad ? "" : " x-frozen") +
           (frozen ? " frozen" : "") +
           " backwards=" + std::to_string(backwards) +
           (special ? " special" : "");
  }
};

// Everything the op produces: its output, every gradient and the running
// statistics after the passes.
struct BnRun {
  std::vector<std::pair<std::string, Tensor>> tensors;
};

BnRun run_batch_norm(const BnCase& k, bool fused) {
  Rng rng(31);
  const std::int64_t channels = k.shape[1];
  const Shape cs{channels};
  Tensor xv = random_tensor(k.shape, rng);
  Tensor head = random_tensor(k.shape, rng);
  Tensor gamma_v = random_tensor(cs, rng), beta_v = random_tensor(cs, rng);
  Tensor delta_v = random_tensor(cs, rng, 0.3f);
  Tensor mask_v = random_tensor(cs, rng, 0.5f);
  Tensor rm = random_tensor(cs, rng, 0.2f);
  Tensor rv = Tensor::full(cs, 0.7f);
  if (k.special) {
    const float inf = std::numeric_limits<float>::infinity();
    xv[0] = -0.0f;
    xv[1] = 0.0f;
    xv[xv.numel() - 1] = inf;  // the last channel turns NaN in training
    head[0] = -0.0f;
    head[1] = 0.0f;
    head[2] = -inf;
    gamma_v[0] = -0.0f;
    beta_v[0] = -0.0f;
    delta_v[0] = -1.0f;  // delta + 1 == +0
    mask_v[0] = -0.0f;
    rm[0] = -0.0f;
  }

  BatchNorm2d bn(channels, 1e-5f, 0.1f);
  bn.set_training(k.training);
  bn.gamma().mutable_value() = gamma_v.clone();
  bn.beta().mutable_value() = beta_v.clone();
  bn.gamma().set_requires_grad(!k.frozen);
  bn.beta().set_requires_grad(!k.frozen);
  bn.running_mean() = rm.clone();
  bn.running_var() = rv.clone();
  const ag::Var delta =
      k.delta ? ag::Var(delta_v.clone(), true) : ag::Var();
  const ag::Var mask = k.mask ? ag::Var(mask_v.clone(), true) : ag::Var();
  bn.set_gamma_perturbation(delta);
  bn.set_channel_mask(mask);

  const ag::Var x0(xv.clone(), k.x_grad);
  Tensor out;
  for (int pass = 0; pass < k.backwards; ++pass) {
    const ag::Var x = k.interior_x ? ag::mul_scalar(x0, 1.0f) : x0;
    const ag::Var y =
        fused ? bn.forward(x)
              : composite_batch_norm(x, bn.gamma(), delta, bn.beta(), mask,
                                     k.training, 1e-5f, 0.1f,
                                     bn.running_mean(), bn.running_var());
    out = y.value();
    ag::Var z = y;
    if (k.consumer == Consumer::kShortcut) z = ag::add(y, x);
    if (k.consumer == Consumer::kLater) z = ag::add(ag::mul_scalar(x, 0.5f), y);
    ag::sum_all(ag::mul(z, ag::Var(head))).backward();
  }

  BnRun r;
  r.tensors.emplace_back("out", out);
  const auto grad = [](const ag::Var& v) {
    return v.defined() && v.has_grad() ? v.grad() : Tensor();
  };
  r.tensors.emplace_back("grad x", grad(x0));
  r.tensors.emplace_back("grad gamma", grad(bn.gamma()));
  r.tensors.emplace_back("grad beta", grad(bn.beta()));
  r.tensors.emplace_back("grad delta", grad(delta));
  r.tensors.emplace_back("grad mask", grad(mask));
  r.tensors.emplace_back("running mean", bn.running_mean());
  r.tensors.emplace_back("running var", bn.running_var());
  return r;
}

// Equal bits in every element, where a NaN equals any NaN: which NaN an
// operation on two NaNs returns is the hardware's first operand's, and a
// compiler may swap the operands of a commutative add or multiply.
void expect_bitwise(const BnRun& want, const BnRun& got,
                    const std::string& what) {
  ASSERT_EQ(want.tensors.size(), got.tensors.size());
  for (std::size_t i = 0; i < want.tensors.size(); ++i) {
    const auto& [name, a] = want.tensors[i];
    const Tensor& b = got.tensors[i].second;
    ASSERT_EQ(a.defined(), b.defined()) << what << ": " << name;
    if (!a.defined()) continue;
    ASSERT_EQ(a.shape(), b.shape()) << what << ": " << name;
    std::int64_t differ = 0;
    for (std::int64_t j = 0; j < a.numel(); ++j) {
      const bool nans = std::isnan(a[j]) && std::isnan(b[j]);
      differ += !nans && std::memcmp(&a.data()[j], &b.data()[j],
                                     sizeof(float)) != 0;
    }
    EXPECT_EQ(differ, 0) << what << ": " << name << " differs in " << differ
                         << " of " << a.numel() << " elements";
  }
}

void expect_matches_composite(const BnCase& k) {
  const BnRun want = run_batch_norm(k, /*fused=*/false);
  for (const int threads : {1, 3}) {
    runtime::set_thread_count(threads);
    expect_bitwise(want, run_batch_norm(k, /*fused=*/true),
                   k.name() + " threads=" + std::to_string(threads));
  }
  runtime::set_thread_count(0);
}

TEST(BatchNormOp, MatchesCompositeBitForBit) {
  // {1,4,1,1}: each sum has one element; {8,5,32,32}: 3 threads split the
  // channels.
  for (const Shape& shape :
       {Shape{2, 3, 4, 5}, Shape{1, 4, 1, 1}, Shape{8, 5, 32, 32}}) {
    for (const bool training : {true, false}) {
      for (const bool delta : {false, true}) {
        for (const bool mask : {false, true}) {
          BnCase k;
          k.shape = shape;
          k.training = training;
          k.delta = delta;
          k.mask = mask;
          expect_matches_composite(k);
        }
      }
    }
  }
}

TEST(BatchNormOp, MatchesCompositeWhereXHasAnotherConsumer) {
  for (const bool training : {true, false}) {
    for (const Consumer consumer :
         {Consumer::kNone, Consumer::kShortcut, Consumer::kLater}) {
      for (const bool interior : {false, true}) {
        BnCase k;
        k.shape = {3, 2, 3, 3};
        k.training = training;
        k.delta = k.mask = true;
        k.consumer = consumer;
        k.interior_x = interior;
        expect_matches_composite(k);
        k.backwards = 2;  // the leaves' second pass adds to their first
        expect_matches_composite(k);
      }
    }
  }
}

TEST(BatchNormOp, MatchesCompositeWithGradientsSkipped) {
  for (const bool training : {true, false}) {
    BnCase k;
    k.shape = {2, 3, 2, 2};
    k.training = training;
    k.delta = k.mask = true;
    k.x_grad = false;  // the stem: only parameter gradients
    expect_matches_composite(k);
    k.x_grad = true;
    k.frozen = true;  // ANP: gamma and beta frozen
    expect_matches_composite(k);
    k.x_grad = false;  // only delta and mask
    expect_matches_composite(k);
  }
}

TEST(BatchNormOp, MatchesCompositeOnSignedZerosAndInfinities) {
  for (const bool training : {true, false}) {
    for (const Shape& shape : {Shape{2, 3, 2, 2}, Shape{1, 3, 1, 1}}) {
      BnCase k;
      k.shape = shape;
      k.training = training;
      k.delta = k.mask = true;
      k.special = true;
      expect_matches_composite(k);
      k.consumer = Consumer::kShortcut;
      expect_matches_composite(k);
    }
  }
}

}  // namespace
}  // namespace bd::nn
