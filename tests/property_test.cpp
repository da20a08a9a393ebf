// Property-based and parameterized sweeps over the numeric kernels and
// system invariants:
//  * conv/pool/matmul gradient checks across a grid of shapes (TEST_P)
//  * algebraic identities (linearity of conv, im2col/matmul equivalence)
//  * metric invariants (ASR + RA <= 100) under random models
//  * prune-mask invariants under random prune/unprune sequences
//  * serialization round-trips over random shapes
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "autograd/ops.h"
#include "nn/layers.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/serialize.h"
#include "util/rng.h"

namespace bd {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng, float scale = 1.0f) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal()) * scale;
  }
  return t;
}

/// Reference 2-D transpose (a copy).
Tensor transposed(const Tensor& a) {
  Tensor out({a.size(1), a.size(0)});
  for (std::int64_t i = 0; i < a.size(0); ++i) {
    for (std::int64_t j = 0; j < a.size(1); ++j) out.at2(j, i) = a.at2(i, j);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Conv2d gradient sweep: (channels_in, channels_out, size, stride, padding)
// ---------------------------------------------------------------------------

using ConvCase = std::tuple<int, int, int, int, int>;

class ConvGradSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradSweep, AnalyticMatchesNumeric) {
  const auto [cin, cout, hw, stride, padding] = GetParam();
  Rng rng(static_cast<std::uint64_t>(cin * 1000 + cout * 100 + hw * 10 +
                                     stride + padding));
  const Tensor x = random_tensor({1, cin, hw, hw}, rng, 0.5f);
  const Tensor w = random_tensor({cout, cin, 3, 3}, rng, 0.5f);
  const Conv2dSpec spec{stride, padding};

  ag::Var vx(x.clone(), true);
  ag::Var vw(w.clone(), true);
  ag::Var out = ag::sum_all(ag::conv2d(vx, vw, ag::Var(), spec));
  out.backward();

  // Spot-check a handful of coordinates against central differences.
  const float eps = 1e-2f;
  auto loss_at = [&](const Tensor& xt, const Tensor& wt) {
    return sum_all(conv2d_forward(xt, wt, Tensor(), spec));
  };
  for (const std::int64_t i :
       {std::int64_t{0}, x.numel() / 2, x.numel() - 1}) {
    Tensor xp = x.clone(), xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss_at(xp, w) - loss_at(xm, w)) / (2.0 * eps);
    EXPECT_NEAR(vx.grad()[i], numeric, 2e-2) << "input grad at " << i;
  }
  for (const std::int64_t i :
       {std::int64_t{0}, w.numel() / 2, w.numel() - 1}) {
    Tensor wp = w.clone(), wm = w.clone();
    wp[i] += eps;
    wm[i] -= eps;
    const double numeric = (loss_at(x, wp) - loss_at(x, wm)) / (2.0 * eps);
    EXPECT_NEAR(vw.grad()[i], numeric, 2e-2) << "weight grad at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, ConvGradSweep,
    ::testing::Values(ConvCase{1, 1, 5, 1, 0}, ConvCase{2, 3, 5, 1, 1},
                      ConvCase{3, 2, 6, 2, 1}, ConvCase{4, 4, 7, 1, 1},
                      ConvCase{2, 5, 8, 2, 0}, ConvCase{1, 8, 6, 3, 1}));

// ---------------------------------------------------------------------------
// Conv identities
// ---------------------------------------------------------------------------

class ConvLinearity : public ::testing::TestWithParam<int> {};

TEST_P(ConvLinearity, ConvIsLinearInInput) {
  // conv(a*x1 + x2) == a*conv(x1) + conv(x2) (no bias).
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Tensor x1 = random_tensor({2, 3, 6, 6}, rng);
  const Tensor x2 = random_tensor({2, 3, 6, 6}, rng);
  const Tensor w = random_tensor({4, 3, 3, 3}, rng);
  const Conv2dSpec spec{1, 1};
  const float a = 2.5f;

  const Tensor lhs = conv2d_forward(
      add(mul_scalar(x1, a), x2), w, Tensor(), spec);
  const Tensor rhs = add(mul_scalar(conv2d_forward(x1, w, Tensor(), spec), a),
                         conv2d_forward(x2, w, Tensor(), spec));
  for (std::int64_t i = 0; i < lhs.numel(); ++i) {
    EXPECT_NEAR(lhs[i], rhs[i], 1e-3f);
  }
}

TEST_P(ConvLinearity, Conv1x1EqualsChannelMatmul) {
  // A 1x1 convolution is a per-pixel matmul over channels.
  Rng rng(static_cast<std::uint64_t>(GetParam() + 100));
  const Tensor x = random_tensor({1, 3, 4, 4}, rng);
  const Tensor w = random_tensor({5, 3, 1, 1}, rng);
  const Tensor y = conv2d_forward(x, w, Tensor(), {1, 0});

  const Tensor wmat = w.reshape({5, 3});
  for (std::int64_t p = 0; p < 16; ++p) {
    for (std::int64_t co = 0; co < 5; ++co) {
      float expected = 0.0f;
      for (std::int64_t ci = 0; ci < 3; ++ci) {
        expected += wmat.at2(co, ci) * x[ci * 16 + p];
      }
      EXPECT_NEAR(y[co * 16 + p], expected, 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvLinearity, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Depthwise conv equals grouped standard conv
// ---------------------------------------------------------------------------

TEST(DepthwiseProperty, MatchesPerChannelStandardConv) {
  Rng rng(77);
  const Tensor x = random_tensor({2, 3, 6, 6}, rng);
  const Tensor w = random_tensor({3, 1, 3, 3}, rng);
  const Conv2dSpec spec{1, 1};
  const Tensor y = depthwise_conv2d_forward(x, w, Tensor(), spec);

  // Each channel processed independently as a 1-channel standard conv.
  for (std::int64_t c = 0; c < 3; ++c) {
    Tensor xc({2, 1, 6, 6});
    for (std::int64_t n = 0; n < 2; ++n) {
      std::copy(x.data() + (n * 3 + c) * 36, x.data() + (n * 3 + c) * 36 + 36,
                xc.data() + n * 36);
    }
    Tensor wc({1, 1, 3, 3});
    std::copy(w.data() + c * 9, w.data() + (c + 1) * 9, wc.data());
    const Tensor yc = conv2d_forward(xc, wc, Tensor(), spec);
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t j = 0; j < 36; ++j) {
        EXPECT_NEAR(y[(n * 3 + c) * 36 + j], yc[n * 36 + j], 1e-4f);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pooling sweeps
// ---------------------------------------------------------------------------

class PoolSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(PoolSweep, MaxMatchesWindowMaxReference) {
  const auto [hw, kernel, stride] = GetParam();
  Rng rng(static_cast<std::uint64_t>(hw * 100 + kernel * 10 + stride));
  const Tensor x = random_tensor({2, 3, hw, hw}, rng);
  const Pool2dSpec spec{kernel, stride, 0};

  const auto mx = maxpool2d_forward(x, spec);
  const std::int64_t out_hw = (hw - kernel) / stride + 1;
  ASSERT_EQ(mx.output.shape(), (Shape{2, 3, out_hw, out_hw}));
  ASSERT_EQ(mx.argmax.size(), static_cast<std::size_t>(mx.output.numel()));
  std::int64_t oi = 0;
  for (std::int64_t p = 0; p < 2 * 3; ++p) {
    for (std::int64_t oy = 0; oy < out_hw; ++oy) {
      for (std::int64_t ox = 0; ox < out_hw; ++ox, ++oi) {
        const std::int64_t corner = p * hw * hw + (oy * hw + ox) * stride;
        float want = x[corner];
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            want = std::max(want, x[corner + ky * hw + kx]);
          }
        }
        EXPECT_EQ(mx.output[oi], want);
        EXPECT_EQ(x[mx.argmax[static_cast<std::size_t>(oi)]], want);
      }
    }
  }

  // Each output routes its gradient to exactly one input, so the mass is
  // conserved even where windows overlap.
  const Tensor go = random_tensor(mx.output.shape(), rng);
  const Tensor gi = maxpool2d_backward(x.shape(), mx.argmax, go);
  EXPECT_NEAR(sum_all(gi), sum_all(go), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Grid, PoolSweep,
                         ::testing::Values(std::tuple{4, 2, 2},
                                           std::tuple{6, 2, 2},
                                           std::tuple{6, 3, 3},
                                           std::tuple{8, 2, 2},
                                           std::tuple{5, 3, 2}));

// ---------------------------------------------------------------------------
// Reduction / broadcast properties
// ---------------------------------------------------------------------------

class ReduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReduceSweep, SumOverAxesEqualsSumAll) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Tensor x = random_tensor({3, 4, 2, 5}, rng);
  for (const auto& axes :
       std::vector<std::vector<std::int64_t>>{{0}, {1}, {3}, {0, 2}, {1, 3},
                                              {0, 1, 2, 3}}) {
    const Tensor r = reduce_sum(x, axes, /*keepdim=*/false);
    Tensor rest = r;
    // Summing the remaining axes must give the global sum.
    EXPECT_NEAR(sum_all(rest), sum_all(x), 1e-2f);
  }
}

TEST_P(ReduceSweep, ReduceToShapeIsAdjointOfBroadcast) {
  // <broadcast(a), g> == <a, reduce_to_shape(g)> - the adjoint identity the
  // autograd backward relies on.
  Rng rng(static_cast<std::uint64_t>(GetParam() + 31));
  const Tensor a = random_tensor({1, 4, 1, 1}, rng);
  const Tensor g = random_tensor({2, 4, 3, 3}, rng);
  const Tensor broadcast_a = add(a, Tensor::zeros({2, 4, 3, 3}));
  const Tensor reduced_g = reduce_to_shape(g, a.shape());

  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < g.numel(); ++i) lhs += broadcast_a[i] * g[i];
  for (std::int64_t i = 0; i < a.numel(); ++i) rhs += a[i] * reduced_g[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceSweep, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Matmul properties
// ---------------------------------------------------------------------------

class MatmulSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSweep, TransposeIdentity) {
  // (A B)^T == B^T A^T
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + k * 10 + n));
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  const Tensor lhs = transposed(matmul(a, b));
  const Tensor rhs = matmul(transposed(b), transposed(a));
  ASSERT_EQ(lhs.shape(), rhs.shape());
  for (std::int64_t i = 0; i < lhs.numel(); ++i) {
    EXPECT_NEAR(lhs[i], rhs[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MatmulSweep,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 3, 4},
                                           std::tuple{5, 1, 7},
                                           std::tuple{8, 8, 8},
                                           std::tuple{3, 16, 2}));

// ---------------------------------------------------------------------------
// Softmax / loss properties
// ---------------------------------------------------------------------------

class SoftmaxSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxSweep, ShiftInvariance) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 7));
  const Tensor x = random_tensor({3, 6}, rng, 3.0f);
  const Tensor shifted = add_scalar(x, 123.0f);
  const Tensor a = log_softmax_rows(x);
  const Tensor b = log_softmax_rows(shifted);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-3f);
  }
}

TEST_P(SoftmaxSweep, CrossEntropyNonNegativeAndCalibrated) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 13));
  const Tensor x = random_tensor({4, 5}, rng, 2.0f);
  std::vector<std::int64_t> labels;
  for (int i = 0; i < 4; ++i) {
    labels.push_back(static_cast<std::int64_t>(rng.uniform_index(5)));
  }
  const ag::Var loss = ag::cross_entropy(ag::Var(x), labels);
  EXPECT_GE(loss.value()[0], 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxSweep, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Prune-mask invariants under random sequences
// ---------------------------------------------------------------------------

class PruneMaskProperty : public ::testing::TestWithParam<int> {};

TEST_P(PruneMaskProperty, RandomPruneSequencesKeepInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 997));
  nn::Conv2d conv(3, 8, 3, 1, 1, /*bias=*/true, rng);
  std::vector<bool> expected(8, false);
  for (int step = 0; step < 40; ++step) {
    const auto f = static_cast<std::int64_t>(rng.uniform_index(8));
    if (rng.bernoulli(0.7)) {
      conv.prune_filter(f);
      expected[static_cast<std::size_t>(f)] = true;
    } else {
      conv.unprune_filter(f);
      expected[static_cast<std::size_t>(f)] = false;
    }
    // Perturb weights like an optimizer would, then re-assert the mask.
    conv.weight().mutable_value()[0] += 0.1f;
    conv.enforce_filter_masks();

    std::int64_t count = 0;
    for (std::int64_t c = 0; c < 8; ++c) {
      EXPECT_EQ(conv.is_filter_pruned(c), expected[static_cast<std::size_t>(c)]);
      if (expected[static_cast<std::size_t>(c)]) {
        ++count;
        const Tensor& w = conv.weight().value();
        const std::int64_t fsz = 3 * 9;
        for (std::int64_t j = 0; j < fsz; ++j) {
          ASSERT_EQ(w[c * fsz + j], 0.0f);
        }
        ASSERT_EQ(conv.bias().value()[c], 0.0f);
      }
    }
    EXPECT_EQ(conv.pruned_filter_count(), count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneMaskProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Serialization round-trip over random shapes
// ---------------------------------------------------------------------------

class SerializeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSweep, RandomShapesRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 31337));
  const auto rank = 1 + rng.uniform_index(4);
  Shape shape;
  for (std::uint64_t d = 0; d < rank; ++d) {
    shape.push_back(static_cast<std::int64_t>(1 + rng.uniform_index(6)));
  }
  const Tensor t = random_tensor(shape, rng);
  std::stringstream buffer;
  write_tensor(buffer, t);
  const Tensor back = read_tensor(buffer);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) ASSERT_EQ(back[i], t[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace bd
