// Optimizer tests: SGD semantics (plain, momentum, weight decay), Adam,
// the global gradient norm, and the two-step SAM protocol.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "optim/optim.h"
#include "tensor/ops.h"

namespace bd::optim {
namespace {

/// Minimizes f(w) = 0.5 * ||w - target||^2; gradient is (w - target).
ag::Var quadratic_loss(ag::Var& w, const Tensor& target) {
  ag::Var diff = ag::sub(w, ag::Var(target));
  return ag::mul_scalar(ag::sum_all(ag::mul(diff, diff)), 0.5f);
}

TEST(Sgd, PlainStepMatchesFormula) {
  ag::Var w(Tensor({2}, {1.0f, -2.0f}), true);
  Sgd sgd({&w}, {/*lr=*/0.1f, 0.0f, 0.0f});
  quadratic_loss(w, Tensor({2}, {0.0f, 0.0f})).backward();
  sgd.step();
  // w <- w - lr * w = 0.9 * w
  EXPECT_FLOAT_EQ(w.value()[0], 0.9f);
  EXPECT_FLOAT_EQ(w.value()[1], -1.8f);
}

TEST(Sgd, ConvergesToTarget) {
  ag::Var w(Tensor({3}, {5.0f, -4.0f, 2.0f}), true);
  const Tensor target({3}, {1.0f, 1.0f, 1.0f});
  Sgd sgd({&w}, {0.2f, 0.0f, 0.0f});
  for (int i = 0; i < 100; ++i) {
    sgd.zero_grad();
    quadratic_loss(w, target).backward();
    sgd.step();
  }
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(w.value()[i], 1.0f, 1e-4);
  }
}

TEST(Sgd, MomentumAcceleratesFirstSteps) {
  // With momentum, the second step is larger than plain SGD's.
  ag::Var w1(Tensor({1}, {1.0f}), true);
  ag::Var w2(Tensor({1}, {1.0f}), true);
  Sgd plain({&w1}, {0.1f, 0.0f, 0.0f});
  Sgd momentum({&w2}, {0.1f, 0.9f, 0.0f});
  const Tensor target({1}, {0.0f});
  for (int i = 0; i < 2; ++i) {
    plain.zero_grad();
    quadratic_loss(w1, target).backward();
    plain.step();
    momentum.zero_grad();
    quadratic_loss(w2, target).backward();
    momentum.step();
  }
  EXPECT_LT(w2.value()[0], w1.value()[0]);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  ag::Var w(Tensor({1}, {1.0f}), true);
  Sgd sgd({&w}, {0.1f, 0.0f, 0.5f});
  // Zero data gradient: decay alone should shrink w.
  ag::Var loss = ag::mul_scalar(ag::sum_all(w), 0.0f);
  loss.backward();
  sgd.step();
  EXPECT_FLOAT_EQ(w.value()[0], 1.0f - 0.1f * 0.5f);
}

TEST(Sgd, SkipsParamsWithoutGrad) {
  ag::Var w(Tensor({1}, {1.0f}), true);
  Sgd sgd({&w}, {0.1f, 0.0f, 0.0f});
  EXPECT_NO_THROW(sgd.step());
  EXPECT_FLOAT_EQ(w.value()[0], 1.0f);
}

TEST(Optimizer, RejectsNullParam) {
  EXPECT_THROW(Sgd({nullptr}, {}), std::invalid_argument);
  ag::Var undefined;
  EXPECT_THROW(Sgd({&undefined}, {}), std::invalid_argument);
}

TEST(Optimizer, GradNorm) {
  ag::Var w(Tensor({2}, {3.0f, 4.0f}), true);
  Sgd sgd({&w}, {0.1f, 0.0f, 0.0f});
  EXPECT_EQ(sgd.grad_norm(), 0.0f);  // no gradient yet
  quadratic_loss(w, Tensor({2}, {0.0f, 0.0f})).backward();
  EXPECT_NEAR(sgd.grad_norm(), 5.0f, 1e-5);  // grad = (3,4)
}

TEST(Adam, ConvergesToTarget) {
  ag::Var w(Tensor({3}, {5.0f, -4.0f, 2.0f}), true);
  const Tensor target({3}, {1.0f, 1.0f, 1.0f});
  Adam adam({&w}, {0.2f});
  for (int i = 0; i < 200; ++i) {
    adam.zero_grad();
    quadratic_loss(w, target).backward();
    adam.step();
  }
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(w.value()[i], 1.0f, 1e-2);
  }
}

TEST(Adam, FirstStepIsLrSized) {
  // Adam's bias-corrected first step ~= lr * sign(grad).
  ag::Var w(Tensor({1}, {1.0f}), true);
  Adam adam({&w}, {0.1f});
  quadratic_loss(w, Tensor({1}, {0.0f})).backward();
  adam.step();
  EXPECT_NEAR(w.value()[0], 0.9f, 1e-3);
}

TEST(Sam, PerturbAndRestore) {
  ag::Var w(Tensor({2}, {3.0f, 4.0f}), true);
  Sam sam(std::make_unique<Sgd>(std::vector<ag::Var*>{&w},
                                SgdOptions{0.0f, 0.0f, 0.0f}),
          /*rho=*/0.5f);
  quadratic_loss(w, Tensor({2}, {0.0f, 0.0f})).backward();
  sam.first_step();
  // Perturbed by rho * g/||g|| = 0.5 * (0.6, 0.8).
  EXPECT_NEAR(w.value()[0], 3.3f, 1e-5);
  EXPECT_NEAR(w.value()[1], 4.4f, 1e-5);

  sam.zero_grad();
  quadratic_loss(w, Tensor({2}, {0.0f, 0.0f})).backward();
  sam.second_step();
  // lr = 0 base optimizer: weights restored exactly.
  EXPECT_NEAR(w.value()[0], 3.0f, 1e-5);
  EXPECT_NEAR(w.value()[1], 4.0f, 1e-5);
}

TEST(Sam, ProtocolEnforced) {
  ag::Var w(Tensor({1}, {1.0f}), true);
  Sam sam(std::make_unique<Sgd>(std::vector<ag::Var*>{&w},
                                SgdOptions{0.1f, 0.0f, 0.0f}),
          0.1f);
  EXPECT_THROW(sam.second_step(), std::logic_error);
  quadratic_loss(w, Tensor({1}, {0.0f})).backward();
  sam.first_step();
  EXPECT_THROW(sam.first_step(), std::logic_error);
}

TEST(Sam, ConvergesOnQuadratic) {
  ag::Var w(Tensor({2}, {4.0f, -3.0f}), true);
  const Tensor target({2}, {1.0f, 2.0f});
  Sam sam(std::make_unique<Sgd>(std::vector<ag::Var*>{&w},
                                SgdOptions{0.1f, 0.0f, 0.0f}),
          0.05f);
  for (int i = 0; i < 200; ++i) {
    sam.zero_grad();
    quadratic_loss(w, target).backward();
    sam.first_step();
    sam.zero_grad();
    quadratic_loss(w, target).backward();
    sam.second_step();
  }
  EXPECT_NEAR(w.value()[0], 1.0f, 0.05f);
  EXPECT_NEAR(w.value()[1], 2.0f, 0.05f);
}

TEST(Sam, RejectsBadConstruction) {
  EXPECT_THROW(Sam(nullptr, 0.1f), std::invalid_argument);
  ag::Var w(Tensor({1}, {1.0f}), true);
  EXPECT_THROW(Sam(std::make_unique<Sgd>(std::vector<ag::Var*>{&w},
                                         SgdOptions{}),
                   0.0f),
               std::invalid_argument);
}

}  // namespace
}  // namespace bd::optim
