// Unit tests for the tensor substrate: shapes, broadcasting, reductions,
// matmul, convolution and pooling kernels, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace bd {
namespace {

TEST(TensorBasics, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorBasics, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorBasics, FromValuesChecksSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(TensorBasics, FullAndScalar) {
  Tensor t = Tensor::full({3}, 2.5f);
  EXPECT_EQ(t[0], 2.5f);
  Tensor s = Tensor::scalar(7.0f);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s[0], 7.0f);
}

TEST(TensorBasics, ReshapeSharesStorage) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor v = t.reshape({3, 2});
  EXPECT_TRUE(t.shares_storage_with(v));
  v[0] = 42.0f;
  EXPECT_EQ(t[0], 42.0f);
}

TEST(TensorBasics, ReshapeRejectsBadNumel) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(TensorBasics, CloneIsDeep) {
  Tensor t({2}, {1, 2});
  Tensor c = t.clone();
  c[0] = 9.0f;
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_FALSE(t.shares_storage_with(c));
}

TEST(TensorBasics, SizeNegativeIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
  EXPECT_THROW(t.size(3), std::out_of_range);
}

TEST(TensorBasics, At4Accessor) {
  Tensor t({1, 2, 2, 2});
  t.at4(0, 1, 1, 0) = 5.0f;
  EXPECT_EQ(t[(0 * 2 + 1) * 4 + 2], 5.0f);
}

// ---------------------------------------------------------------------------
// Broadcasting
// ---------------------------------------------------------------------------

TEST(Broadcast, ShapeRules) {
  EXPECT_EQ(broadcast_shape({2, 3}, {2, 3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shape({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
  EXPECT_THROW(broadcast_shape({2, 3}, {4}), std::invalid_argument);
}

TEST(Broadcast, AddPerChannel) {
  Tensor x({2, 3, 1, 1}, {1, 2, 3, 4, 5, 6});
  Tensor b({1, 3, 1, 1}, {10, 20, 30});
  Tensor y = add(x, b);
  EXPECT_EQ(y[0], 11.0f);
  EXPECT_EQ(y[4], 25.0f);
}

TEST(Broadcast, ReduceToShapeInvertsBroadcast) {
  Tensor g({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = reduce_to_shape(g, {3});
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_EQ(r[0], 5.0f);   // 1+4
  EXPECT_EQ(r[2], 9.0f);   // 3+6
}

TEST(Broadcast, ReduceToShapeIdentity) {
  Tensor g({2, 2}, {1, 2, 3, 4});
  Tensor r = reduce_to_shape(g, {2, 2});
  EXPECT_EQ(r[3], 4.0f);
}

TEST(Broadcast, HigherRankScalarTakesBroadcastShape) {
  // A one-element operand of higher rank still broadcasts: the result has
  // the shape graph inference gives the node, not the other operand's.
  EXPECT_EQ(mul(Tensor({3}), Tensor({1, 1})).shape(), (Shape{1, 3}));
  EXPECT_EQ(add(Tensor({1, 1, 1}), Tensor({2, 2})).shape(),
            (Shape{1, 2, 2}));
  EXPECT_EQ(sub(Tensor::scalar(1.0f), Tensor({1})).shape(), (Shape{1}));
}

TEST(Broadcast, ScalarFastPath) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::scalar(2.0f);
  Tensor y = mul(a, s);
  EXPECT_EQ(y[3], 8.0f);
  Tensor z = sub(s, a);
  EXPECT_EQ(z[0], 1.0f);
}

// ---------------------------------------------------------------------------
// Elementwise / reductions
// ---------------------------------------------------------------------------

TEST(Elementwise, UnaryOps) {
  Tensor a({3}, {-1.0f, 0.0f, 4.0f});
  EXPECT_EQ(relu(a)[0], 0.0f);
  EXPECT_EQ(relu(a)[2], 4.0f);
  EXPECT_FLOAT_EQ(sqrt(a)[2], 2.0f);
}

TEST(Elementwise, DivByTensor) {
  Tensor a({2}, {6, 9});
  Tensor b({2}, {2, 3});
  Tensor y = div(a, b);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(Reductions, SumMeanNorms) {
  Tensor a({2, 2}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(sum_all(a), -2.0f);
  EXPECT_FLOAT_EQ(l1_norm(a), 10.0f);
  EXPECT_FLOAT_EQ(l2_norm(a), std::sqrt(30.0f));
}

TEST(Reductions, ReduceSumAxes) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor rows = reduce_sum(a, {1}, /*keepdim=*/false);
  EXPECT_EQ(rows.shape(), (Shape{2}));
  EXPECT_EQ(rows[0], 6.0f);
  EXPECT_EQ(rows[1], 15.0f);

  Tensor cols = reduce_sum(a, {0}, /*keepdim=*/true);
  EXPECT_EQ(cols.shape(), (Shape{1, 3}));
  EXPECT_EQ(cols[2], 9.0f);
}

TEST(Reductions, ReduceMeanChannels) {
  // (N=1, C=2, H=2, W=1): per-channel mean over N,H,W.
  Tensor a({1, 2, 2, 1}, {1, 3, 10, 30});
  Tensor m = reduce_mean(a, {0, 2, 3}, /*keepdim=*/true);
  EXPECT_EQ(m.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(m[0], 2.0f);
  EXPECT_FLOAT_EQ(m[1], 20.0f);
}

// ---------------------------------------------------------------------------
// Matmul / classification helpers
// ---------------------------------------------------------------------------

TEST(Matmul, Basic) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(Matmul, RejectsMismatch) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})), std::invalid_argument);
}

TEST(Matmul, Transpose) {
  // a^T * I through the trans_a flag: each output is one product by 1
  // plus exact zeros, so it is a^T element for element.
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = matmul(a, Tensor({2, 2}, {1, 0, 0, 1}), /*trans_a=*/true);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 2; ++j) EXPECT_EQ(t.at2(i, j), a.at2(j, i));
  }
  EXPECT_EQ(t.at2(2, 1), 6.0f);
}

// The sum every GEMM element must equal bit for bit: start at +0 and add
// a*b for p = 0..k-1 in order (this target builds with -ffp-contract=off,
// so each term is one rounded multiply and one rounded add).
void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += av * bv;
      }
      c[i * ldc + j] = acc;
    }
  }
}

/// Reference 2-D transpose (a copy).
Tensor transposed(const Tensor& a) {
  Tensor out({a.size(1), a.size(0)});
  for (std::int64_t i = 0; i < a.size(0); ++i) {
    for (std::int64_t j = 0; j < a.size(1); ++j) out.at2(j, i) = a.at2(i, j);
  }
  return out;
}

std::vector<float> random_floats(std::size_t count, std::mt19937& gen) {
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> v(count);
  for (float& x : v) x = dist(gen);
  return v;
}

// Restores the environment's thread count when a test ends.
struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_thread_count(0); }
};

// Runs gemm on padded operands (every ld is 3 past the row length) and
// checks C against naive_gemm with memcmp, and its padding untouched.
void expect_gemm_matches(bool ta, bool tb, std::int64_t m, std::int64_t n,
                         std::int64_t k, std::mt19937& gen) {
  const std::int64_t lda = (ta ? m : k) + 3, ldb = (tb ? k : n) + 3;
  const std::int64_t ldc = n + 3;
  const std::vector<float> a = random_floats(
      static_cast<std::size_t>((ta ? k : m) * lda), gen);
  const std::vector<float> b = random_floats(
      static_cast<std::size_t>((tb ? n : k) * ldb), gen);
  std::vector<float> want(static_cast<std::size_t>(m * ldc), -7.0f);
  std::vector<float> got = want;
  naive_gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, want.data(), ldc);
  gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
            0)
      << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
      << " k=" << k << " threads=" << runtime::thread_count();
}

TEST(Gemm, MatchesNaiveLoopBitForBit) {
  ThreadCountGuard guard;
  std::mt19937 gen(11);
  const std::int64_t sizes[] = {1, 3, 5, 17, 33};
  for (int threads : {1, 2, 3}) {
    runtime::set_thread_count(threads);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (std::int64_t m : sizes) {
          for (std::int64_t n : sizes) {
            for (std::int64_t k : sizes) {
              expect_gemm_matches(ta, tb, m, n, k, gen);
            }
          }
        }
        // Shapes that span several row tiles, column panels and threads.
        expect_gemm_matches(ta, tb, 70, 300, 40, gen);
        expect_gemm_matches(ta, tb, 9, 50, 600, gen);
      }
    }
  }
}

// Runs gemm_packed under every kernel on one layout (see the caller) and
// checks each C, unstored floats included, against a naive loop.
void expect_packed_gemm_matches(const std::vector<std::string>& kernels,
                                std::int64_t m, std::int64_t n, std::int64_t k,
                                int b_mode, int c_mode, bool accumulate,
                                std::mt19937& gen) {
  // A: element (r, p) at r * 2 + p * (2m + 1).
  const std::int64_t row_step = 2, col_step = 2 * m + 1;
  std::vector<float> a = random_floats(
      static_cast<std::size_t>(std::max<std::int64_t>(k, 1) * (2 * m + 1)),
      gen);
  // B rows at non-affine offsets; columns by b_mode.
  std::vector<std::int64_t> b_row(static_cast<std::size_t>(k));
  std::int64_t at = 3;
  for (std::int64_t p = 0; p < k; ++p) {
    b_row[p] = at;
    at += 2 * n + 1 + p % 3;
  }
  std::vector<std::int64_t> b_col(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    b_col[j] = b_mode == 1 ? j + 2 : 2 * j + j / 3;
  }
  const std::vector<float> b = random_floats(
      static_cast<std::size_t>(at + 2 * n + kGemmSlack), gen);
  // C columns by c_mode: dense; every third dropped, with slack; scattered
  // with every fifth dropped; shifted one float left with two of every
  // seven dropped, with slack (so the first strip's column 0 would sit
  // before the row).
  const std::int64_t ldc = c_mode == 2 ? 2 * n + 3 : n + 2;
  std::vector<std::int64_t> c_col(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    switch (c_mode) {
      case 1: c_col[j] = j % 3 == 1 ? -1 : j; break;
      case 2: c_col[j] = j % 5 == 4 ? -1 : 2 * j + 1; break;
      default: c_col[j] = j % 7 < 2 ? -1 : j - 1; break;
    }
  }
  const bool c_slack = c_mode == 1 || c_mode == 3;
  const std::vector<float> c0 =
      random_floats(static_cast<std::size_t>(m * ldc + kGemmSlack), gen);
  const GemmB b_desc{b.data(), b_row.data(),
                     b_mode == 0 ? nullptr : b_col.data(), b_mode == 0};
  std::vector<float> want = c0;
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t cj = c_mode == 0 ? j : c_col[j];
      if (cj < 0) continue;
      float sum = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        sum += a[r * row_step + p * col_step] *
               b[b_row[p] + (b_mode == 0 ? j : b_col[j])];
      }
      float& out = want[r * ldc + cj];
      out = accumulate ? out + sum : sum;
    }
  }
  for (const std::string& kernel : kernels) {
    const GemmKernelScope scope(kernel);
    const GemmPackedA packed(m, k, {a.data(), row_step, col_step});
    std::vector<float> got = c0;
    gemm_packed(packed, n, b_desc,
                {got.data(), ldc, c_mode == 0 ? nullptr : c_col.data(),
                 c_slack, accumulate});
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
              0)
        << kernel << " m=" << m << " n=" << n << " k=" << k
        << " b_mode=" << b_mode << " c_mode=" << c_mode
        << " accumulate=" << accumulate;
  }
}

// Element (i, p) of op(X) for X row-major with rows `ld` apart.
float& op_at(std::vector<float>& x, bool trans, std::int64_t ld,
             std::int64_t i, std::int64_t p) {
  return x[static_cast<std::size_t>(trans ? p * ld + i : i * ld + p)];
}

TEST(Gemm, EveryHostKernelMatchesBaselineBitwise) {
  ThreadCountGuard guard;
  const std::vector<std::string> kernels = gemm_host_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.back(), gemm_kernel_name());
  EXPECT_THROW(GemmKernelScope("nope"), std::invalid_argument);
  const float inf = std::numeric_limits<float>::infinity();
  // The NaN the hardware makes of 0 * inf, so every NaN in C has one bit
  // pattern: where two NaNs with different bits meet, which one an add
  // keeps follows the compiler's operand order, not the kernel's arithmetic.
  volatile float zero = 0.0f;
  const float nan = zero * inf;
  std::mt19937 gen(23);
  // No m is a multiple of any MR (4, 6, 8), no n of any NR (8, 16);
  // 101 and 300 span several row tiles and column panels.
  const std::int64_t ms[] = {1, 7, 13, 101};
  const std::int64_t ns[] = {1, 5, 19, 47, 300};
  const std::int64_t ks[] = {0, 1, 3, 37};
  for (int threads : {1, 3}) {
    runtime::set_thread_count(threads);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (std::int64_t m : ms) {
          for (std::int64_t n : ns) {
            for (std::int64_t k : ks) {
              // Every leading dimension is wider than its matrix.
              const std::int64_t lda = (ta ? m : k) + 5;
              const std::int64_t ldb = (tb ? k : n) + 2;
              const std::int64_t ldc = n + 3;
              std::vector<float> a = random_floats(
                  static_cast<std::size_t>((ta ? k : m) * lda), gen);
              std::vector<float> b = random_floats(
                  static_cast<std::size_t>((tb ? n : k) * ldb), gen);
              if (k > 0) {
                // Row 0 of op(A) is -0: its finite terms are -0, so those
                // sums end at +0 only if they start at +0. The inf in the
                // last row meets a 0 of op(B) (0 * inf = NaN), and a NaN
                // and a -inf spread along their row and column.
                for (std::int64_t p = 0; p < k; ++p) {
                  op_at(a, ta, lda, 0, p) = -0.0f;
                }
                op_at(a, ta, lda, m - 1, 0) = inf;
                op_at(a, ta, lda, m / 2, k - 1) = nan;
                op_at(b, tb, ldb, 0, n - 1) = 0.0f;
                op_at(b, tb, ldb, k / 2, n / 2) = -inf;
              }
              std::vector<float> want(static_cast<std::size_t>(m * ldc),
                                      -7.0f);
              {
                const GemmKernelScope baseline(kernels.front());
                gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                     want.data(), ldc);
              }
              for (const std::string& kernel : kernels) {
                std::vector<float> got(want.size(), -7.0f);
                const GemmKernelScope scope(kernel);
                gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                     got.data(), ldc);
                EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << kernel << " ta=" << ta << " tb=" << tb << " m=" << m
                    << " n=" << n << " k=" << k << " threads=" << threads;
              }
            }
          }
        }
      }
    }
  }
  // gemm_packed's offset-described operands and accumulate mode, against a
  // naive loop over the same offsets: B read in place with slack, through a
  // consecutive table without slack, or gathered; C dense, with dropped
  // columns and slack (masked vectors), scattered, or shifted; stored or
  // added. gemm_packed runs on the calling thread.
  for (std::int64_t m : {1, 7, 13}) {
    for (std::int64_t n : {1, 5, 19, 47}) {
      for (std::int64_t k : {0, 1, 3, 37}) {
        for (int b_mode = 0; b_mode < 3; ++b_mode) {
          for (int c_mode = 0; c_mode < 4; ++c_mode) {
            for (bool accumulate : {false, true}) {
              expect_packed_gemm_matches(kernels, m, n, k, b_mode, c_mode,
                                         accumulate, gen);
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, ZeroTimesInfIsNaN) {
  // No term is skipped: a zero in A meets the inf in B and the sum is NaN.
  const Tensor a({1, 2}, {0.0f, 1.0f});
  const Tensor b({2, 1}, {std::numeric_limits<float>::infinity(), 2.0f});
  EXPECT_TRUE(std::isnan(matmul(a, b)[0]));
}

TEST(Matmul, TransposeFlagsMatchExplicitTranspose) {
  std::mt19937 gen(5);
  const Tensor a({4, 3}, random_floats(12, gen));
  const Tensor b({5, 3}, random_floats(15, gen));
  const Tensor want = matmul(a, transposed(b));
  const Tensor got = matmul(a, b, false, true);
  ASSERT_EQ(got.shape(), (Shape{4, 5}));
  EXPECT_EQ(std::memcmp(want.data(), got.data(), 20 * sizeof(float)), 0);
  const Tensor want_t = matmul(transposed(a), a);
  const Tensor got_t = matmul(a, a, true, false);
  ASSERT_EQ(got_t.shape(), (Shape{3, 3}));
  EXPECT_EQ(std::memcmp(want_t.data(), got_t.data(), 9 * sizeof(float)), 0);
  EXPECT_THROW(matmul(a, b, true, true), std::invalid_argument);
}

TEST(Classify, ArgmaxRows) {
  Tensor a({2, 3}, {0.1f, 0.9f, 0.3f, 2.0f, -1.0f, 0.0f});
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Classify, LogSoftmaxRowsSumsToOne) {
  Tensor a({2, 4}, {1, 2, 3, 4, -1, 0, 1, 100});
  Tensor lp = log_softmax_rows(a);
  for (std::int64_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (std::int64_t c = 0; c < 4; ++c) total += std::exp(lp.at2(r, c));
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
  // Numerical stability with a huge logit.
  EXPECT_NEAR(lp.at2(1, 3), 0.0, 1e-5);
}

// ---------------------------------------------------------------------------
// Convolution kernels
// ---------------------------------------------------------------------------

TEST(Conv, OutSize) {
  EXPECT_EQ(conv_out_size(8, 3, 1, 1), 8);
  EXPECT_EQ(conv_out_size(8, 3, 2, 1), 4);
  EXPECT_THROW(conv_out_size(2, 5, 1, 0), std::invalid_argument);
}

TEST(Conv, IdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::ones({1, 1, 1, 1});
  Tensor y = conv2d_forward(x, w, Tensor(), {1, 0});
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv, KnownAnswer3x3) {
  // All-ones 3x3 kernel, padding 1: each output = sum of 3x3 neighbourhood.
  Tensor x({1, 1, 3, 3}, {1, 1, 1, 1, 1, 1, 1, 1, 1});
  Tensor w = Tensor::ones({1, 1, 3, 3});
  Tensor y = conv2d_forward(x, w, Tensor(), {1, 1});
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 9.0f);  // centre sees all 9
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 4.0f);  // corner sees 4
}

TEST(Conv, BiasAdded) {
  Tensor x = Tensor::zeros({1, 1, 2, 2});
  Tensor w = Tensor::ones({2, 1, 1, 1});
  Tensor b({2}, {1.0f, -2.0f});
  Tensor y = conv2d_forward(x, w, b, {1, 0});
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 1, 1), -2.0f);
}

TEST(Conv, StrideTwoShape) {
  Tensor x = Tensor::zeros({2, 3, 8, 8});
  Tensor w = Tensor::zeros({4, 3, 3, 3});
  Tensor y = conv2d_forward(x, w, Tensor(), {2, 1});
  EXPECT_EQ(y.shape(), (Shape{2, 4, 4, 4}));
}

TEST(Conv, RejectsChannelMismatch) {
  Tensor x = Tensor::zeros({1, 2, 4, 4});
  Tensor w = Tensor::zeros({1, 3, 3, 3});
  EXPECT_THROW(conv2d_forward(x, w, Tensor(), {1, 1}), std::invalid_argument);
}

TEST(Conv, DepthwiseKnownAnswer) {
  // Each channel convolved with its own 1x1 kernel.
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor w({2, 1, 1, 1}, {2.0f, 3.0f});
  Tensor y = depthwise_conv2d_forward(x, w, Tensor(), {1, 0});
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 1, 1), 24.0f);
}

TEST(Conv, Im2ColRoundTripGradient) {
  // col2im of an all-ones patch gradient (an all-ones 2x2 kernel under an
  // all-ones output gradient) accumulates the patch multiplicity at each
  // pixel.
  Tensor x = Tensor::ones({1, 1, 3, 3});
  const Conv2dGrads g = conv2d_backward(x, Tensor::ones({1, 1, 2, 2}), false,
                                        Tensor::ones({1, 1, 2, 2}), {1, 0});
  EXPECT_FLOAT_EQ(g.grad_input.at4(0, 0, 1, 1), 4.0f);  // centre in 4 patches
  EXPECT_FLOAT_EQ(g.grad_input.at4(0, 0, 0, 0), 1.0f);  // corner in 1 patch
  EXPECT_FLOAT_EQ(g.grad_weight[0], 4.0f);  // each tap sees 4 ones
}

// Reference conv kernels: per sample, a (C*KH*KW, OH*OW) patch matrix and
// naive_gemm, with the weight and bias gradients summed in sample order.
struct RefConv {
  std::int64_t n, c, h, w, cout, kh, kw, oh, ow;
  Conv2dSpec spec;

  RefConv(const Tensor& x, const Tensor& weight, Conv2dSpec s)
      : n(x.size(0)), c(x.size(1)), h(x.size(2)), w(x.size(3)),
        cout(weight.size(0)), kh(weight.size(2)), kw(weight.size(3)),
        oh(conv_out_size(h, kh, s.stride, s.padding)),
        ow(conv_out_size(w, kw, s.stride, s.padding)), spec(s) {}

  std::int64_t rows() const { return c * kh * kw; }
  std::int64_t plane() const { return oh * ow; }

  // Calls fn(row, output index, input index) for every in-bounds tap.
  template <typename Fn>
  void for_each_tap(Fn fn) const {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t row = (ch * kh + ky) * kw + kx;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t iy = oy * spec.stride - spec.padding + ky;
              const std::int64_t ix = ox * spec.stride - spec.padding + kx;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
              fn(row, oy * ow + ox, (ch * h + iy) * w + ix);
            }
          }
        }
      }
    }
  }

  std::vector<float> im2col(const Tensor& x, std::int64_t i) const {
    std::vector<float> cols(static_cast<std::size_t>(rows() * plane()), 0.0f);
    const float* img = x.data() + i * c * h * w;
    for_each_tap([&](std::int64_t row, std::int64_t o, std::int64_t in) {
      cols[static_cast<std::size_t>(row * plane() + o)] = img[in];
    });
    return cols;
  }

  Tensor forward(const Tensor& x, const Tensor& weight,
                 const Tensor& bias) const {
    Tensor out({n, cout, oh, ow});
    for (std::int64_t i = 0; i < n; ++i) {
      const std::vector<float> cols = im2col(x, i);
      float* o = out.data() + i * cout * plane();
      naive_gemm(false, false, cout, plane(), rows(), weight.data(), rows(),
                 cols.data(), plane(), o, plane());
      if (!bias.defined()) continue;
      for (std::int64_t co = 0; co < cout; ++co) {
        float* plane_out = o + co * plane();
        for (std::int64_t j = 0; j < plane(); ++j) plane_out[j] += bias[co];
      }
    }
    return out;
  }

  Conv2dGrads backward(const Tensor& x, const Tensor& weight, bool has_bias,
                       const Tensor& gy) const {
    Conv2dGrads g;
    g.grad_input = Tensor(x.shape());
    g.grad_weight = Tensor(weight.shape());
    if (has_bias) g.grad_bias = Tensor({cout});
    std::vector<float> part(static_cast<std::size_t>(cout * rows()));
    std::vector<float> dcols(static_cast<std::size_t>(rows() * plane()));
    for (std::int64_t i = 0; i < n; ++i) {
      const std::vector<float> cols = im2col(x, i);
      const float* go = gy.data() + i * cout * plane();
      naive_gemm(false, true, cout, rows(), plane(), go, plane(), cols.data(),
                 plane(), part.data(), rows());
      for (std::size_t e = 0; e < part.size(); ++e) g.grad_weight[e] += part[e];
      naive_gemm(true, false, rows(), plane(), cout, weight.data(), rows(), go,
                 plane(), dcols.data(), plane());
      float* gin = g.grad_input.data() + i * c * h * w;
      for_each_tap([&](std::int64_t row, std::int64_t o, std::int64_t in) {
        gin[in] += dcols[static_cast<std::size_t>(row * plane() + o)];
      });
      if (!has_bias) continue;
      for (std::int64_t co = 0; co < cout; ++co) {
        double sum = 0.0;
        for (std::int64_t j = 0; j < plane(); ++j) sum += go[co * plane() + j];
        g.grad_bias[co] += static_cast<float>(sum);
      }
    }
    return g;
  }
};

Tensor random_tensor(const Shape& shape, std::mt19937& gen) {
  return Tensor(shape, random_floats(
                           static_cast<std::size_t>(shape_numel(shape)), gen));
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct ConvCase {
  const char* name;
  Shape x, w;
  Conv2dSpec spec;
  bool bias;
  std::int64_t pruned_filter;  // filter zeroed out, or -1
  bool non_finite = false;     // one inf input pixel and one inf weight
};

// Same bits, or for a non-finite case the same finite/non-finite pattern
// and the same finite values (which NaN bits an add keeps follows the
// compiler's operand order, not the arithmetic).
bool same_values(const Tensor& got, const Tensor& want, bool non_finite) {
  if (!non_finite) return same_bits(got, want);
  if (got.shape() != want.shape()) return false;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const bool finite = std::isfinite(want[i]);
    if (std::isfinite(got[i]) != finite) return false;
    if (finite &&
        std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Checks one case under the GEMM kernel named `kernel`, which the caller
// has put in scope.
void expect_conv_matches(const ConvCase& cc, const std::string& kernel,
                         std::mt19937& gen) {
  Tensor x = random_tensor(cc.x, gen);
  Tensor w = random_tensor(cc.w, gen);
  if (cc.pruned_filter >= 0) {
    const std::int64_t per = w.numel() / w.size(0);
    std::fill(w.data() + cc.pruned_filter * per,
              w.data() + (cc.pruned_filter + 1) * per, 0.0f);
  }
  if (cc.non_finite) {
    // A pixel on the right edge, which the grid columns past OW of the row
    // above read, and a weight whose products with padding zeros are NaN.
    const float inf = std::numeric_limits<float>::infinity();
    x.at4(0, 0, 1, cc.x[3] - 1) = inf;
    w.at4(0, 0, 0, 0) = -inf;
  }
  const Tensor bias = cc.bias ? random_tensor({cc.w[0]}, gen) : Tensor();
  const RefConv ref(x, w, cc.spec);
  const Tensor gy = random_tensor({ref.n, ref.cout, ref.oh, ref.ow}, gen);
  const std::string where = std::string(cc.name) + " kernel=" + kernel +
                            " threads=" +
                            std::to_string(runtime::thread_count());
  const bool nf = cc.non_finite;

  EXPECT_TRUE(same_values(conv2d_forward(x, w, bias, cc.spec),
                          ref.forward(x, w, bias), nf))
      << where;
  const Conv2dGrads got = conv2d_backward(x, w, cc.bias, gy, cc.spec);
  const Conv2dGrads want = ref.backward(x, w, cc.bias, gy);
  EXPECT_TRUE(same_values(got.grad_input, want.grad_input, nf)) << where;
  EXPECT_TRUE(same_values(got.grad_weight, want.grad_weight, nf)) << where;
  EXPECT_EQ(got.grad_bias.defined(), cc.bias) << where;
  if (cc.bias) EXPECT_TRUE(same_bits(got.grad_bias, want.grad_bias)) << where;

  // A call that skips a gradient leaves it undefined and computes the
  // others with the full call's bits.
  for (const auto [need_input, need_weight] :
       {std::pair{false, true}, std::pair{true, false},
        std::pair{false, false}}) {
    const std::string skip = where + " need_input=" +
                             std::to_string(need_input) +
                             " need_weight=" + std::to_string(need_weight);
    const Conv2dGrads part = conv2d_backward(x, w, cc.bias, gy, cc.spec,
                                             need_input, need_weight);
    EXPECT_EQ(part.grad_input.defined(), need_input) << skip;
    EXPECT_EQ(part.grad_weight.defined(), need_weight) << skip;
    if (need_input) {
      EXPECT_TRUE(same_bits(part.grad_input, got.grad_input)) << skip;
    }
    if (need_weight) {
      EXPECT_TRUE(same_bits(part.grad_weight, got.grad_weight)) << skip;
    }
    EXPECT_EQ(part.grad_bias.defined(), cc.bias) << skip;
    if (cc.bias) EXPECT_TRUE(same_bits(part.grad_bias, got.grad_bias)) << skip;
  }
}

TEST(Conv, MatchesPerSampleReferenceBitForBit) {
  // The stride-1 GEMM's columns are an OH x Wp grid (its last row cut at
  // OW) read in place from the padded image; strides above 1 gather. NR is
  // 8 or 16 and MR 4, 6 or 8, so 5 and 7 channels are no multiple of MR.
  const ConvCase cases[] = {
      {"stride 2, pad 1, bias", {5, 3, 7, 7}, {4, 3, 3, 3}, {2, 1}, true, -1},
      {"pad 0, n = 1", {1, 4, 6, 5}, {6, 4, 3, 3}, {1, 0}, false, -1},
      {"pad 2, 2x2 kernel", {2, 3, 5, 4}, {5, 3, 2, 2}, {1, 2}, true, -1},
      {"2x2 kernel, stride 2", {2, 2, 6, 7}, {3, 2, 2, 2}, {2, 0}, false, -1},
      // A stride past the kernel: the split image keeps 2 of 3 phases.
      {"2x2 kernel, stride 3, pad 1", {2, 3, 8, 7}, {4, 3, 2, 2}, {3, 1}, true,
       -1},
      {"OH*Wp = 48, a multiple of NR", {2, 3, 6, 6}, {4, 3, 3, 3}, {1, 1},
       false, -1},
      {"OH*Wp = 35, no multiple of NR", {2, 3, 5, 5}, {4, 3, 3, 3}, {1, 1},
       true, -1},
      {"C = 1", {3, 1, 7, 6}, {5, 1, 3, 3}, {1, 1}, true, -1},
      {"C = 5, Cout = 7", {3, 5, 6, 6}, {7, 5, 3, 3}, {1, 1}, false, -1},
      {"3x3 map", {4, 6, 3, 3}, {6, 6, 3, 3}, {1, 1}, true, -1},
      {"1x1 pointwise", {3, 8, 5, 5}, {5, 8, 1, 1}, {1, 0}, true, -1},
      {"1x1 stride 2", {2, 6, 6, 6}, {4, 6, 1, 1}, {2, 0}, false, -1},
      {"pruned filters", {4, 5, 6, 6}, {6, 5, 3, 3}, {1, 1}, true, 2},
      // One sample per forward, grad-input and grad-weight chunk (each
      // costs above the parallel grain) over 5 samples and 9 weight strips.
      {"one sample per chunk", {5, 16, 6, 6}, {16, 16, 3, 3}, {1, 1}, true,
       -1},
      // Chunks of 5 samples over a batch of 12, the last one short.
      {"several samples per chunk", {12, 4, 4, 4}, {8, 4, 3, 3}, {1, 1},
       false, -1},
      {"non-finite, stride 1", {2, 3, 5, 6}, {4, 3, 3, 3}, {1, 1}, true, -1,
       true},
      {"non-finite, stride 2", {2, 3, 7, 7}, {4, 3, 3, 3}, {2, 1}, false, -1,
       true},
  };
  ThreadCountGuard guard;
  std::mt19937 gen(3);
  for (const std::string& kernel : gemm_host_kernels()) {
    const GemmKernelScope scope(kernel);
    for (int threads : {1, 3}) {
      runtime::set_thread_count(threads);
      for (const ConvCase& cc : cases) expect_conv_matches(cc, kernel, gen);
    }
  }
}

TEST(Conv, DepthwiseBackwardSkipsWhatIsNotNeeded) {
  std::mt19937 gen(8);
  const Tensor x = random_tensor({3, 4, 6, 5}, gen);
  const Tensor w = random_tensor({4, 1, 3, 3}, gen);
  const Conv2dSpec spec{2, 1};
  const Tensor gy = random_tensor(
      conv2d_shape(x.shape(), w.shape(), nullptr, spec, /*depthwise=*/true),
      gen);
  const Conv2dGrads full = depthwise_conv2d_backward(x, w, true, gy, spec);
  for (const auto [need_input, need_weight] :
       {std::pair{false, true}, std::pair{true, false},
        std::pair{false, false}}) {
    const Conv2dGrads part =
        depthwise_conv2d_backward(x, w, true, gy, spec, need_input,
                                  need_weight);
    EXPECT_EQ(part.grad_input.defined(), need_input);
    EXPECT_EQ(part.grad_weight.defined(), need_weight);
    if (need_input) EXPECT_TRUE(same_bits(part.grad_input, full.grad_input));
    if (need_weight) {
      EXPECT_TRUE(same_bits(part.grad_weight, full.grad_weight));
    }
    EXPECT_TRUE(same_bits(part.grad_bias, full.grad_bias));
  }
}

// ---------------------------------------------------------------------------
// Pooling kernels
// ---------------------------------------------------------------------------

TEST(Pool, MaxPoolForwardAndIndices) {
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const auto res = maxpool2d_forward(x, {2, 2, 0});
  EXPECT_EQ(res.output.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(res.output[0], 5.0f);
  EXPECT_EQ(res.argmax[0], 1);
}

TEST(Pool, MaxPoolBackwardRoutesToArgmax) {
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const auto res = maxpool2d_forward(x, {2, 2, 0});
  Tensor g = maxpool2d_backward(x.shape(), res.argmax,
                                Tensor::full({1, 1, 1, 1}, 2.0f));
  EXPECT_FLOAT_EQ(g[1], 2.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(Pool, GlobalAvgPool) {
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = global_avgpool_forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
  Tensor g = global_avgpool_backward(x.shape(), Tensor::ones({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(g[0], 0.25f);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(Serialize, RoundTrip) {
  Tensor t({2, 3}, {1.5f, -2.0f, 0.0f, 4.0f, 5.5f, -6.25f});
  std::stringstream buffer;
  write_tensor(buffer, t);
  Tensor back = read_tensor(buffer);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream buffer("not a tensor");
  EXPECT_THROW(read_tensor(buffer), std::runtime_error);
}

}  // namespace
}  // namespace bd
