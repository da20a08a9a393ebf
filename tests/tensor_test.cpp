// Unit tests for the tensor substrate: shapes, broadcasting, reductions,
// matmul, convolution and pooling kernels, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

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
  EXPECT_EQ(abs(a)[0], 1.0f);
  EXPECT_EQ(sign(a)[0], -1.0f);
  EXPECT_EQ(sign(a)[1], 0.0f);
  EXPECT_EQ(relu(a)[0], 0.0f);
  EXPECT_EQ(relu(a)[2], 4.0f);
  EXPECT_FLOAT_EQ(sqrt(a)[2], 2.0f);
  EXPECT_FLOAT_EQ(clamp(a, -0.5f, 2.0f)[0], -0.5f);
  EXPECT_FLOAT_EQ(clamp(a, -0.5f, 2.0f)[2], 2.0f);
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
  EXPECT_FLOAT_EQ(mean_all(a), -0.5f);
  EXPECT_FLOAT_EQ(l1_norm(a), 10.0f);
  EXPECT_FLOAT_EQ(l2_norm(a), std::sqrt(30.0f));
  EXPECT_FLOAT_EQ(max_all(a), 3.0f);
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
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at2(2, 1), 6.0f);
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
  // col2im(im2col(x)) with an all-ones cols gradient accumulates the patch
  // multiplicity at each pixel.
  Tensor x = Tensor::ones({1, 1, 3, 3});
  Conv2dSpec spec{1, 0};
  Tensor cols = im2col(x, 0, 2, 2, spec);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));
  Tensor grad = Tensor::zeros({1, 1, 3, 3});
  col2im_accumulate(Tensor::ones({4, 4}), grad, 0, 2, 2, spec);
  EXPECT_FLOAT_EQ(grad.at4(0, 0, 1, 1), 4.0f);  // centre in 4 patches
  EXPECT_FLOAT_EQ(grad.at4(0, 0, 0, 0), 1.0f);  // corner in 1 patch
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

TEST(Pool, AvgPool) {
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 6});
  Tensor y = avgpool2d_forward(x, {2, 2, 0});
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  Tensor g = avgpool2d_backward(x.shape(), Tensor::full({1, 1, 1, 1}, 4.0f),
                                {2, 2, 0});
  EXPECT_FLOAT_EQ(g[0], 1.0f);
  EXPECT_FLOAT_EQ(g[3], 1.0f);
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
