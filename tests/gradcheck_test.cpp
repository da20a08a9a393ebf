// Finite-difference gradient verification for the graph-IR autograd.
//
// This is the gate on the src/autograd rewrite: every differentiable op in
// autograd/ops.h is checked against central differences, swept over odd
// shapes, broadcast pairs (including stride-zero stretched dimensions) and
// reduction-axis variants, with per-op mixed absolute/relative tolerances
// in the check_numerical_grads idiom; GradCheckCoverage fails for an op
// kind no sweep case builds. A coordinate-walk oracle checks the
// elementwise, broadcast and reduction kernels bit for bit (special values
// included, at 1 and 3 threads) and their shapes against the shape rules,
// and the fused unary backwards against grad * d(x); an end-to-end test
// verifies the Grad-Prune unlearning loss (cross-entropy on trigger-stamped
// images through a conv/batchnorm net) so the paper's filter scores (Eq. 3)
// rest on provably correct gradients.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "attack/trigger.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/layers.h"
#include "runtime/thread_pool.h"
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

/// Moves every element at least `margin` away from each kink so central
/// differences never straddle a non-differentiable point.
Tensor away_from(Tensor t, const std::vector<float>& kinks, float margin) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    for (const float k : kinks) {
      if (std::fabs(t[i] - k) < margin) {
        t[i] = k + std::copysign(margin, t[i] - k == 0.0f ? 1.0f : t[i] - k);
      }
    }
  }
  return t;
}

/// Tensor whose elements form a permutation with pairwise gaps >= 0.1 —
/// maxpool argmax selections stay stable under +-eps perturbation.
Tensor distinct_tensor(const Shape& shape, float scale = 0.1f) {
  Tensor t(shape);
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    // 7919 is prime, so i -> i*7919 mod n is a permutation whenever n is
    // not a multiple of it (always true for test-sized tensors).
    t[i] = static_cast<float>((i * 7919) % n) * scale -
           static_cast<float>(n) * scale * 0.5f;
  }
  return t;
}

struct GradCheckOpts {
  float eps = 1e-3f;
  double rtol = 1e-2;
  double atol = 1e-3;
};

/// Set while GradCheckCoverage replays the sweeps: check_numerical_grads
/// then only builds each case's graph and adds its op kinds here.
std::set<OpKind>* g_built_kinds = nullptr;

void add_kinds(const Node& n, std::set<OpKind>& kinds) {
  kinds.insert(n.kind);
  for (const NodePtr& in : n.inputs) add_kinds(*in, kinds);
}

/// Central-difference check of d(fn)/d(inputs[k]) for every input element,
/// with the mixed tolerance |analytic - numeric| <= atol + rtol*max(|.|).
void check_numerical_grads(
    const std::function<Var(const std::vector<Var>&)>& fn,
    const std::vector<Tensor>& input_values, const GradCheckOpts& opts = {}) {
  std::vector<Var> inputs;
  inputs.reserve(input_values.size());
  for (const auto& v : input_values) {
    inputs.emplace_back(v.clone(), /*requires_grad=*/true);
  }
  Var out = fn(inputs);
  if (g_built_kinds != nullptr) {
    add_kinds(*out.node(), *g_built_kinds);
    return;
  }
  ASSERT_EQ(shape_numel(out.shape()), 1)
      << "gradient check needs a scalar output";
  out.backward();

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ASSERT_TRUE(inputs[k].has_grad()) << "input " << k << " got no gradient";
    const Tensor& analytic = inputs[k].grad();
    for (std::int64_t i = 0; i < input_values[k].numel(); ++i) {
      const auto eval_at = [&](float delta) {
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
          (eval_at(opts.eps) - eval_at(-opts.eps)) / (2.0 * opts.eps);
      const double a = analytic[i];
      const double bound =
          opts.atol + opts.rtol * std::max(std::fabs(a), std::fabs(numeric));
      EXPECT_NEAR(a, numeric, bound)
          << "input " << k << " element " << i << " of shape "
          << shape_string(input_values[k].shape());
    }
  }
}

/// Weighted scalar head: sum(w * x) with a fixed, grad-free weight, so the
/// upstream gradient reaching the op under test is non-uniform.
Var weighted_sum(const Var& x, const Tensor& w) {
  return sum_all(mul(x, Var(w)));
}

/// The GradCheckSweep bodies, for GradCheckCoverage to replay.
std::vector<void (*)()>& sweeps() {
  static std::vector<void (*)()> all;
  return all;
}

bool register_sweep(void (*body)()) {
  sweeps().push_back(body);
  return true;
}

// Defines TEST(GradCheckSweep, Name) with the body that follows and
// registers that body in sweeps().
#define GRAD_SWEEP(Name)                                        \
  void Name##Sweep();                                           \
  const bool k##Name##Registered = register_sweep(Name##Sweep); \
  TEST(GradCheckSweep, Name) { Name##Sweep(); }                 \
  void Name##Sweep()

// Broadcast pairs: equal shapes, stretched dims on either side, missing
// leading dims, rank-0 against rank-1, and a doubly-stretched pair.
const std::vector<std::pair<Shape, Shape>>& broadcast_pairs() {
  static const std::vector<std::pair<Shape, Shape>> pairs = {
      {{3, 4}, {3, 4}},     {{3, 1}, {1, 4}},  {{2, 3, 4}, {4}},
      {{5}, {}},            {{2, 1, 3}, {4, 1}}, {{1}, {3, 2, 1}},
  };
  return pairs;
}

const std::vector<Shape>& odd_shapes() {
  static const std::vector<Shape> shapes = {{7}, {3, 5}, {2, 3, 5}, {1, 1, 3}};
  return shapes;
}

// ---------------------------------------------------------------------------
// Coordinate-walk oracle: the elementwise and reduction kernels vs the
// per-element row-major walk they replaced, bit for bit
// ---------------------------------------------------------------------------

// `s` right-aligned in a rank-`rank` shape padded with leading 1s.
Shape pad_shape(const Shape& s, std::size_t rank) {
  Shape out(rank, 1);
  std::copy(s.begin(), s.end(), out.begin() + (rank - s.size()));
  return out;
}

// Row-major strides of `padded`; dims it broadcasts along get stride 0.
std::vector<std::int64_t> walk_strides(const Shape& padded, const Shape& out) {
  std::vector<std::int64_t> strides(padded.size(), 0);
  std::int64_t stride = 1;
  for (std::size_t i = padded.size(); i-- > 0;) {
    strides[i] = (padded[i] == 1 && out[i] != 1) ? 0 : stride;
    stride *= padded[i];
  }
  return strides;
}

// Advances a row-major coordinate over `shape` by one element.
void next_coord(std::vector<std::int64_t>& coord, const Shape& shape) {
  for (std::size_t d = coord.size(); d-- > 0;) {
    if (++coord[d] < shape[d]) return;
    coord[d] = 0;
  }
}

// f(a, b) broadcast, one element at a time through stride vectors.
template <typename F>
Tensor oracle_binary(const Tensor& a, const Tensor& b, F f) {
  const Shape out_shape = bd::broadcast_shape(a.shape(), b.shape());
  const std::size_t rank = out_shape.size();
  const auto sa = walk_strides(pad_shape(a.shape(), rank), out_shape);
  const auto sb = walk_strides(pad_shape(b.shape(), rank), out_shape);
  Tensor out(out_shape);
  std::vector<std::int64_t> coord(rank, 0);
  for (std::int64_t flat = 0; flat < out.numel(); ++flat) {
    std::int64_t ia = 0, ib = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      ia += coord[d] * sa[d];
      ib += coord[d] * sb[d];
    }
    out[flat] = f(a[ia], b[ib]);
    next_coord(coord, out_shape);
  }
  return out;
}

// Sums `t` into `kept` (t's rank, each dim t's or 1), walking t in flat
// order and adding each element to its stride-0 target position.
Tensor oracle_sum(const Tensor& t, const Shape& kept) {
  Tensor out(kept);
  const auto so = walk_strides(kept, t.shape());
  std::vector<std::int64_t> coord(t.shape().size(), 0);
  for (std::int64_t flat = 0; flat < t.numel(); ++flat) {
    std::int64_t oi = 0;
    for (std::size_t d = 0; d < coord.size(); ++d) oi += coord[d] * so[d];
    out[oi] += t[flat];
    next_coord(coord, t.shape());
  }
  return out;
}

std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

// Bit-for-bit equality, where any NaN equals any NaN: IEEE 754 leaves the
// sign and payload of a NaN result open when NaNs meet (or one is made by
// inf * 0), and the compiler picks them through operand order, in the
// historical kernels as in these.
void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(float_bits(got[i]), float_bits(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Random values with about a third drawn from +-0, +-inf, NaN, subnormals
// and the float extremes.
Tensor special_tensor(const Shape& shape, Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float special[] = {0.0f,
                           -0.0f,
                           kInf,
                           -kInf,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           3.0e-39f,
                           -1.0e-40f,
                           std::numeric_limits<float>::max(),
                           -std::numeric_limits<float>::max()};
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(0.3)
               ? special[rng.uniform_index(std::size(special))]
               : static_cast<float>(rng.uniform(-4.0, 4.0));
  }
  return t;
}

// Broadcast-compatible pairs: ranks 0-5, size-1 and zero-size dims,
// mismatched ranks, a scalar on either side, and pairs large enough that
// parallel_for splits them mid-row (numel > kElemwiseGrain).
std::vector<std::pair<Shape, Shape>> oracle_pairs() {
  std::vector<std::pair<Shape, Shape>> pairs = {
      {{}, {}},           {{}, {4}},           {{2, 3}, {}},
      {{1, 1}, {3}},      {{3}, {1, 1}},       {{1}, {2, 1, 1}},
      {{0, 3}, {3}},      {{2, 0, 1}, {1, 4}}, {{0}, {}},
      {{4, 5, 6, 7}, {1, 5, 1, 1}},            {{3, 37, 419}, {37, 1}},
      {{2, 64, 300}, {2, 64, 300}},            {{1, 64, 1}, {5, 1, 131}},
  };
  Rng rng(2024);
  for (std::size_t trial = 0; trial < 120; ++trial) {
    const std::size_t rank = trial % 6;
    Shape a(rank), b(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      const std::int64_t pick = rng.uniform_int(0, 9);
      const std::int64_t n = pick == 0 ? 0 : (pick < 4 ? 1 : pick / 2);
      const std::int64_t side = rng.uniform_int(0, 2);
      a[d] = side == 1 ? 1 : n;  // side 0: b stretches, 1: a stretches,
      b[d] = side == 0 ? 1 : n;  // 2: both walk the dim
    }
    // Drop leading dims: a missing dim broadcasts like a size-1 one.
    const auto half = static_cast<std::int64_t>(rank / 2);
    a.erase(a.begin(), a.begin() + rng.uniform_int(0, half));
    b.erase(b.begin(), b.begin() + rng.uniform_int(0, half));
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

// Runs `body` once at 1 engine thread and once at 3.
template <typename Body>
void at_1_and_3_threads(Body body) {
  for (const int threads : {1, 3}) {
    runtime::set_thread_count(threads);
    body("threads=" + std::to_string(threads) + " ");
  }
  runtime::set_thread_count(0);
}

TEST(BroadcastOracle, StrideZeroReferenceMatchesKernelBitwise) {
  using BinaryOp = Tensor (*)(const Tensor&, const Tensor&);
  using Ref = float (*)(float, float);
  const std::vector<std::tuple<const char*, BinaryOp, Ref>> ops = {
      {"add", bd::add, [](float x, float y) { return x + y; }},
      {"sub", bd::sub, [](float x, float y) { return x - y; }},
      {"mul", bd::mul, [](float x, float y) { return x * y; }},
      {"div", bd::div, [](float x, float y) { return x / y; }},
  };
  Rng rng(31);
  at_1_and_3_threads([&](const std::string& tag) {
    for (const auto& [sa, sb] : oracle_pairs()) {
      const Tensor a = special_tensor(sa, rng);
      const Tensor b = special_tensor(sb, rng);
      // The kernel's shape is the one graph inference gives the node.
      const Shape inferred = add(Var(a), Var(b)).shape();
      for (const auto& [name, op, ref] : ops) {
        const std::string what = tag + name + " " + shape_string(sa) + " " +
                                 shape_string(sb);
        const Tensor got = op(a, b);
        ASSERT_EQ(got.shape(), inferred) << what;
        expect_bitwise(got, oracle_binary(a, b, ref), what);
      }
    }
  });
}

TEST(BroadcastOracle, ReduceSumMatchesCoordinateWalkBitwise) {
  Rng rng(32);
  std::vector<Shape> shapes;
  for (const auto& [sa, sb] : oracle_pairs()) {
    shapes.push_back(bd::broadcast_shape(sa, sb));
  }
  at_1_and_3_threads([&](const std::string& tag) {
    for (const Shape& s : shapes) {
      const Tensor t = special_tensor(s, rng);
      const auto rank = static_cast<std::int64_t>(s.size());
      for (std::int64_t mask = 0; mask < (std::int64_t{1} << rank); ++mask) {
        std::vector<std::int64_t> axes;
        Shape kept = s;
        for (std::int64_t d = 0; d < rank; ++d) {
          if (((mask >> d) & 1) == 0) continue;
          axes.push_back((mask + d) % 2 == 0 ? d : d - rank);  // mix signs
          kept[static_cast<std::size_t>(d)] = 1;
        }
        const Tensor want = oracle_sum(t, kept);
        for (const bool keepdim : {false, true}) {
          const std::string what = tag + "reduce_sum " + shape_string(s) +
                                   " mask " + std::to_string(mask) +
                                   (keepdim ? " keepdim" : "");
          const Tensor got = bd::reduce_sum(t, axes, keepdim);
          ASSERT_EQ(got.shape(), reduce_shape(s, axes, keepdim)) << what;
          expect_bitwise(got, want.reshape(got.shape()), what);
        }
      }
    }
  });
}

TEST(BroadcastOracle, ReduceToShapeMatchesCoordinateWalkBitwise) {
  Rng rng(33);
  at_1_and_3_threads([&](const std::string& tag) {
    for (const auto& [sa, sb] : oracle_pairs()) {
      const Shape out = bd::broadcast_shape(sa, sb);
      const Tensor t = special_tensor(out, rng);
      for (const Shape& target : {sa, sb}) {
        const std::string what = tag + "reduce_to_shape " +
                                 shape_string(out) + " -> " +
                                 shape_string(target);
        const Tensor got = bd::reduce_to_shape(t, target);
        ASSERT_EQ(got.shape(), target) << what;
        // With nothing to reduce the input comes back as is (no 0 + -0).
        expect_bitwise(got,
                       target == out ? t
                                     : oracle_sum(t, pad_shape(target,
                                                               out.size()))
                                           .reshape(target),
                       what);
      }
    }
  });
}

// Each unary backward runs as one fused pass; it must still compute
// exactly grad * d(x), the product of the derivative tensor and `mul` it
// replaced (so relu's gradient keeps the sign of zero and NaN).
TEST(BroadcastOracle, FusedUnaryBackwardMatchesDerivativeTimesGrad) {
  using Forward = Var (*)(const Var&);
  struct Case {
    const char* name;
    Forward forward;
    // The derivative tensor the backward multiplied the gradient by.
    Tensor (*derivative)(const Tensor& x);
  };
  const std::vector<Case> cases = {
      {"relu", relu,
       [](const Tensor& x) {
         return bd::unary(x, [](float v) { return v > 0 ? 1.0f : 0.0f; });
       }},
      {"sigmoid", sigmoid,
       [](const Tensor& x) {
         return bd::unary(bd::sigmoid(x),
                          [](float s) { return s * (1.0f - s); });
       }},
      {"hardsigmoid", hardsigmoid,
       [](const Tensor& x) {
         return bd::unary(x, [](float v) {
           return (v > -3.0f && v < 3.0f) ? (1.0f / 6.0f) : 0.0f;
         });
       }},
      {"hardswish", hardswish,
       [](const Tensor& x) {
         return bd::unary(x, [](float v) {
           if (v <= -3.0f) return 0.0f;
           if (v >= 3.0f) return 1.0f;
           return (2.0f * v + 3.0f) / 6.0f;
         });
       }},
  };
  Rng rng(34);
  for (const Case& c : cases) {
    const Tensor x = special_tensor({3, 41}, rng);
    const Tensor g = special_tensor({3, 41}, rng);
    Var xv(x.clone(), /*requires_grad=*/true);
    // d(sum(g * f(x)))/d f(x) is g, bit for bit (1 * g).
    sum_all(mul(c.forward(xv), Var(g))).backward();
    expect_bitwise(xv.grad(), bd::mul(g, c.derivative(x)), c.name);
  }
  // sqrt divides instead: grad / (2 * sqrt(x)).
  const Tensor x = special_tensor({3, 41}, rng);
  const Tensor g = special_tensor({3, 41}, rng);
  Var xv(x.clone(), /*requires_grad=*/true);
  sum_all(mul(sqrt(xv), Var(g))).backward();
  expect_bitwise(xv.grad(), bd::div(g, bd::mul_scalar(bd::sqrt(x), 2.0f)),
                 "sqrt");
}

TEST(ShapeInfer, RejectsIncompatibleAndMalformed) {
  EXPECT_THROW(bd::broadcast_shape({2, 3}, {4, 3, 2}), std::invalid_argument);
  EXPECT_FALSE(bd::broadcastable_to({3, 2}, {3, 4}));
  EXPECT_THROW(matmul_shape({2, 3}, {4, 5}), std::invalid_argument);
  EXPECT_EQ(matmul_shape({3, 2}, {4, 3}, true, true), (Shape{2, 4}));
  EXPECT_THROW(reduce_shape({2, 3}, {2}, false), std::invalid_argument);
  EXPECT_EQ(reduce_shape({2, 3, 4}, {-1, 0}, false), (Shape{3}));
  EXPECT_EQ(reduce_shape({2, 3, 4}, {1}, true), (Shape{2, 1, 4}));
  EXPECT_EQ(reduce_shape({2, 3, 4}, {1, -2}, false), (Shape{2, 4}));
  const Conv2dSpec spec{1, 1};
  EXPECT_THROW(conv2d_shape({2, 3, 5, 5}, {4, 2, 3, 3}, nullptr, spec, false),
               std::invalid_argument);
  EXPECT_EQ(conv2d_shape({2, 3, 5, 5}, {3, 1, 3, 3}, nullptr, spec, true),
            (Shape{2, 3, 5, 5}));
  EXPECT_EQ(pool2d_shape({2, 3, 5, 5}, Pool2dSpec{}), (Shape{2, 3, 2, 2}));
  EXPECT_THROW(check_rows({6}, "rows"), std::invalid_argument);
}

// The message `op` throws as std::invalid_argument; empty if it returns.
std::string thrown_message(const std::function<void()>& op) {
  try {
    op();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ShapeInfer, BuilderAndKernelThrowTheSameMessage) {
  // Each op has one shape rule in src/tensor; its ag:: builder (which runs
  // the kernel) and the kernel called directly must reject a malformed call
  // with the same message.
  const Conv2dSpec spec{1, 1};
  const Pool2dSpec pool;
  const Tensor x({2, 3, 5, 5});
  const Tensor bad_w({4, 2, 3, 3}), w({4, 3, 3, 3}), bad_dw({4, 1, 3, 3});
  const Tensor bad_bias({3}), rank3({2, 3, 4}), m({2, 3}), m2({4, 5});
  const struct {
    const char* rule;
    std::function<void()> builder, kernel;
  } cases[] = {
      {"conv channels",
       [&] { conv2d(Var(x), Var(bad_w), Var(), spec); },
       [&] { conv2d_forward(x, bad_w, Tensor(), spec); }},
      {"depthwise weight",
       [&] { depthwise_conv2d(Var(x), Var(bad_dw), Var(), spec); },
       [&] { depthwise_conv2d_forward(x, bad_dw, Tensor(), spec); }},
      {"conv bias",
       [&] { conv2d(Var(x), Var(w), Var(bad_bias), spec); },
       [&] { conv2d_forward(x, w, bad_bias, spec); }},
      {"conv rank",
       [&] { conv2d(Var(rank3), Var(w), Var(), spec); },
       [&] { conv2d_forward(rank3, w, Tensor(), spec); }},
      {"matmul", [&] { matmul(Var(m), Var(m2)); },
       [&] { bd::matmul(m, m2); }},
      {"maxpool rank", [&] { maxpool2d(Var(rank3), pool); },
       [&] { maxpool2d_forward(rank3, pool); }},
      {"global avgpool rank", [&] { global_avgpool(Var(rank3)); },
       [&] { global_avgpool_forward(rank3); }},
      {"reduce axis", [&] { reduce_sum(Var(m), {2}, false); },
       [&] { bd::reduce_sum(m, {2}, false); }},
      {"rows rank", [&] { log_softmax(Var(rank3)); },
       [&] { log_softmax_rows(rank3); }},
      {"reshape numel", [&] { reshape(Var(m), {4, 2}); },
       [&] { m.reshape({4, 2}); }},
  };
  for (const auto& c : cases) {
    const std::string built = thrown_message(c.builder);
    EXPECT_FALSE(built.empty()) << c.rule << ": the builder did not throw";
    EXPECT_EQ(built, thrown_message(c.kernel)) << c.rule;
  }
}

// ---------------------------------------------------------------------------
// Elementwise binaries over broadcast pairs
// ---------------------------------------------------------------------------

GRAD_SWEEP(AddSubBroadcast) {
  Rng rng(101);
  for (const auto& [sa, sb] : broadcast_pairs()) {
    const Tensor w =
        random_tensor(bd::broadcast_shape(sa, sb), rng);
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(add(in[0], in[1]), w);
        },
        {random_tensor(sa, rng), random_tensor(sb, rng)});
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(sub(in[0], in[1]), w);
        },
        {random_tensor(sa, rng), random_tensor(sb, rng)});
  }
}

GRAD_SWEEP(MulDivBroadcast) {
  Rng rng(102);
  for (const auto& [sa, sb] : broadcast_pairs()) {
    const Tensor w = random_tensor(bd::broadcast_shape(sa, sb), rng);
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(mul(in[0], in[1]), w);
        },
        {random_tensor(sa, rng), random_tensor(sb, rng)});
    // Denominator bounded away from zero.
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(div(in[0], in[1]), w);
        },
        {random_tensor(sa, rng), random_tensor(sb, rng, 0.5f, 1.5f)});
  }
}

// ---------------------------------------------------------------------------
// Scalar-argument and unary elementwise ops over odd shapes
// ---------------------------------------------------------------------------

GRAD_SWEEP(ScalarOps) {
  Rng rng(103);
  for (const Shape& s : odd_shapes()) {
    const Tensor w = random_tensor(s, rng);
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(add_scalar(in[0], 0.37f), w);
        },
        {random_tensor(s, rng)});
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(mul_scalar(in[0], -2.5f), w);
        },
        {random_tensor(s, rng)});
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(neg(in[0]), w);
        },
        {random_tensor(s, rng)});
  }
}

GRAD_SWEEP(Sqrt) {
  Rng rng(104);
  for (const Shape& s : odd_shapes()) {
    const Tensor w = random_tensor(s, rng);
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(sqrt(in[0]), w);
        },
        {random_tensor(s, rng, 0.5f, 2.0f)});
  }
}

GRAD_SWEEP(Activations) {
  Rng rng(106);
  for (const Shape& s : odd_shapes()) {
    const Tensor w = random_tensor(s, rng);
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(relu(in[0]), w);
        },
        {away_from(random_tensor(s, rng), {0.0f}, 0.05f)});
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(sigmoid(in[0]), w);
        },
        {random_tensor(s, rng, -3.0f, 3.0f)});
    // Sweep across both saturation regions and the linear band, keeping
    // clear of the +-3 kinks.
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(hardsigmoid(in[0]), w);
        },
        {away_from(random_tensor(s, rng, -5.0f, 5.0f), {-3.0f, 3.0f},
                   0.05f)});
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(hardswish(in[0]), w);
        },
        {away_from(random_tensor(s, rng, -5.0f, 5.0f), {-3.0f, 3.0f},
                   0.05f)});
  }
}

// ---------------------------------------------------------------------------
// Shape ops and reductions
// ---------------------------------------------------------------------------

GRAD_SWEEP(ReshapeFlatten) {
  Rng rng(107);
  const Tensor w = random_tensor({4, 6}, rng);
  check_numerical_grads(
      [&w](const std::vector<Var>& in) {
        return weighted_sum(reshape(in[0], {4, 6}), w);
      },
      {random_tensor({2, 3, 4}, rng)});
  const Tensor wf = random_tensor({2, 12}, rng);
  check_numerical_grads(
      [&wf](const std::vector<Var>& in) {
        return weighted_sum(flatten2d(in[0]), wf);
      },
      {random_tensor({2, 3, 2, 2}, rng)});
}

GRAD_SWEEP(ReduceSumAxes) {
  Rng rng(108);
  const Shape s{2, 3, 4};
  const struct {
    std::vector<std::int64_t> axes;
    bool keepdim;
  } cases[] = {
      {{0}, false}, {{1}, false}, {{0, 2}, false},
      {{-1}, false}, {{1}, true}, {{0, 1, 2}, false},
  };
  for (const auto& c : cases) {
    const Tensor w =
        random_tensor(reduce_shape(s, c.axes, c.keepdim), rng);
    check_numerical_grads(
        [&](const std::vector<Var>& in) {
          return weighted_sum(reduce_sum(in[0], c.axes, c.keepdim), w);
        },
        {random_tensor(s, rng)});
    check_numerical_grads(
        [&](const std::vector<Var>& in) {
          return weighted_sum(reduce_mean(in[0], c.axes, c.keepdim), w);
        },
        {random_tensor(s, rng)});
  }
}

GRAD_SWEEP(SumAllMeanAll) {
  Rng rng(109);
  for (const Shape& s : odd_shapes()) {
    check_numerical_grads(
        [](const std::vector<Var>& in) { return sum_all(in[0]); },
        {random_tensor(s, rng)});
    check_numerical_grads(
        [](const std::vector<Var>& in) { return mean_all(in[0]); },
        {random_tensor(s, rng)});
  }
}

// ---------------------------------------------------------------------------
// Linear algebra, convolution, pooling
// ---------------------------------------------------------------------------

GRAD_SWEEP(Matmul) {
  Rng rng(110);
  GradCheckOpts opts;
  opts.rtol = 2e-2;
  const std::vector<std::pair<Shape, Shape>> cases = {
      {{3, 4}, {4, 5}}, {{1, 3}, {3, 2}}, {{5, 1}, {1, 3}}};
  for (const auto& [sa, sb] : cases) {
    const Tensor w = random_tensor({sa[0], sb[1]}, rng);
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(matmul(in[0], in[1]), w);
        },
        {random_tensor(sa, rng), random_tensor(sb, rng)}, opts);
  }
}

GRAD_SWEEP(Conv2dVariants) {
  Rng rng(111);
  GradCheckOpts opts;
  opts.rtol = 2e-2;
  opts.atol = 5e-3;
  {
    // Stride 1, padding 1, with bias.
    const Conv2dSpec spec{1, 1};
    const Tensor w = random_tensor({2, 4, 5, 5}, rng);
    check_numerical_grads(
        [&](const std::vector<Var>& in) {
          return weighted_sum(conv2d(in[0], in[1], in[2], spec), w);
        },
        {random_tensor({2, 3, 5, 5}, rng), random_tensor({4, 3, 3, 3}, rng),
         random_tensor({4}, rng)},
        opts);
  }
  {
    // Stride 2, no padding, bias-free (undefined bias Var).
    const Conv2dSpec spec{2, 0};
    const Tensor w = random_tensor({1, 2, 2, 2}, rng);
    check_numerical_grads(
        [&](const std::vector<Var>& in) {
          return weighted_sum(conv2d(in[0], in[1], Var(), spec), w);
        },
        {random_tensor({1, 2, 5, 5}, rng), random_tensor({2, 2, 3, 3}, rng)},
        opts);
  }
}

GRAD_SWEEP(DepthwiseConv2d) {
  Rng rng(112);
  GradCheckOpts opts;
  opts.rtol = 2e-2;
  opts.atol = 5e-3;
  const Conv2dSpec spec{1, 1};
  const Tensor w = random_tensor({2, 3, 5, 5}, rng);
  check_numerical_grads(
      [&](const std::vector<Var>& in) {
        return weighted_sum(depthwise_conv2d(in[0], in[1], in[2], spec), w);
      },
      {random_tensor({2, 3, 5, 5}, rng), random_tensor({3, 1, 3, 3}, rng),
       random_tensor({3}, rng)},
      opts);
}

GRAD_SWEEP(Pooling) {
  Rng rng(113);
  const Pool2dSpec spec{2, 2, 0};
  {
    const Tensor w = random_tensor({1, 2, 2, 2}, rng);
    check_numerical_grads(
        [&](const std::vector<Var>& in) {
          return weighted_sum(maxpool2d(in[0], spec), w);
        },
        {distinct_tensor({1, 2, 5, 5})});
  }
  {
    const Tensor w = random_tensor({2, 3, 1, 1}, rng);
    check_numerical_grads(
        [&](const std::vector<Var>& in) {
          return weighted_sum(global_avgpool(in[0]), w);
        },
        {random_tensor({2, 3, 3, 5}, rng)});
  }
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

GRAD_SWEEP(LogSoftmax) {
  Rng rng(114);
  for (const Shape s : {Shape{3, 5}, Shape{1, 7}, Shape{4, 2}}) {
    const Tensor w = random_tensor(s, rng);
    check_numerical_grads(
        [&w](const std::vector<Var>& in) {
          return weighted_sum(log_softmax(in[0]), w);
        },
        {random_tensor(s, rng, -2.0f, 2.0f)});
  }
}

GRAD_SWEEP(NllAndCrossEntropy) {
  Rng rng(115);
  const std::vector<std::int64_t> labels{2, 0, 4};
  check_numerical_grads(
      [&labels](const std::vector<Var>& in) {
        return nll_loss(log_softmax(in[0]), labels);
      },
      {random_tensor({3, 5}, rng, -2.0f, 2.0f)});
  check_numerical_grads(
      [&labels](const std::vector<Var>& in) {
        return cross_entropy(in[0], labels);
      },
      {random_tensor({3, 5}, rng, -2.0f, 2.0f)});
}

GRAD_SWEEP(MseLoss) {
  Rng rng(116);
  for (const Shape& s : odd_shapes()) {
    check_numerical_grads(
        [](const std::vector<Var>& in) { return mse_loss(in[0], in[1]); },
        {random_tensor(s, rng), random_tensor(s, rng)});
  }
}

// Every op's gradient is checked against finite differences: replays each
// GradCheckSweep body with check_numerical_grads only building its graph,
// and fails for an op kind (leaves aside) that no sweep case builds.
TEST(GradCheckCoverage, EveryOpKindHasASweepCase) {
  std::set<OpKind> built;
  g_built_kinds = &built;
  for (const auto body : sweeps()) body();
  g_built_kinds = nullptr;
  // op_kind_name names each enumerator, and only those, in a switch the
  // compiler checks for completeness.
  for (unsigned k = 1;
       std::string(op_kind_name(static_cast<OpKind>(k))) != "unknown"; ++k) {
    const auto kind = static_cast<OpKind>(k);
    EXPECT_TRUE(built.count(kind) == 1)
        << op_kind_name(kind)
        << " has no finite-difference case in GradCheckSweep";
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the Grad-Prune unlearning loss
// ---------------------------------------------------------------------------

// Numeric gradient of the unlearning loss (batch-size-scaled cross-entropy
// on trigger-stamped images, model in eval mode — exactly what
// core::score_filters differentiates) w.r.t. the first conv's weights.
// Filter scores are the mean |grad| over these entries (Eq. 3), so this
// pins their correctness end to end.
TEST(GradCheckE2E, UnlearnLossFilterGradients) {
  Rng rng(777);
  nn::Conv2d conv(3, 4, 3, 1, 1, /*bias=*/true, rng);
  nn::BatchNorm2d bn(4);
  nn::Linear head(4 * 4 * 4, 10, rng);
  conv.set_training(false);
  bn.set_training(false);
  head.set_training(false);

  // Trigger-stamped batch with true labels, as in the paper's Eq. 2 set.
  const attack::BadNetsTrigger trigger;
  const std::int64_t batch = 3;
  Tensor images({batch, 3, 8, 8});
  for (std::int64_t b = 0; b < batch; ++b) {
    Tensor img = random_tensor({3, 8, 8}, rng, 0.0f, 1.0f);
    const Tensor stamped = trigger.apply(img);
    for (std::int64_t i = 0; i < stamped.numel(); ++i) {
      images[b * stamped.numel() + i] = stamped[i];
    }
  }
  const std::vector<std::int64_t> labels{1, 7, 3};
  const Pool2dSpec pool{2, 2, 0};

  const auto loss_value = [&]() {
    const Var logits = head.forward(
        flatten2d(maxpool2d(relu(bn.forward(conv.forward(Var(images)))),
                            pool)));
    return mul_scalar(cross_entropy(logits, labels),
                      static_cast<float>(batch));
  };

  conv.zero_grad();
  bn.zero_grad();
  head.zero_grad();
  Var loss = loss_value();
  loss.backward();
  ASSERT_TRUE(conv.weight().has_grad());
  const Tensor analytic = conv.weight().grad().clone();

  // Perturbing one conv weight by +-eps can flip a ReLU sign or a maxpool
  // argmax somewhere in the feature map, putting a kink inside the central
  // difference (possibly dead-center, where it corrupts every step size
  // identically). So each probe also records the ReLU sign pattern and the
  // maxpool argmax: when both are identical at +eps and -eps the loss
  // restricted to that coordinate is smooth (affine ops and log-softmax
  // only), the central difference is trustworthy to O(eps^2), and the
  // analytic gradient must match it tightly. Elements that straddle a kink
  // are skipped but counted — too many skips would make the check vacuous.
  struct Probe {
    double loss = 0.0;
    std::vector<char> relu_sign;
    std::vector<std::int64_t> argmax;
  };
  Tensor& w = conv.weight().mutable_value();
  // Small eps: each weight influences ~200 pre-activations, and the chance
  // of one sitting within eps*|x| of a kink scales with eps. At 3e-4 the
  // centered difference still clears float32 rounding noise (loss is O(10),
  // so the quotient noise is ~1e-3) by an order of magnitude.
  const float eps = 3e-4f;
  std::int64_t checked = 0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const float saved = w[i];
    const auto probe_at = [&](float delta) {
      w[i] = saved + delta;
      NoGradGuard guard;
      Probe p;
      const Tensor pre = bn.forward(conv.forward(Var(images))).value();
      p.relu_sign.reserve(static_cast<std::size_t>(pre.numel()));
      for (std::int64_t e = 0; e < pre.numel(); ++e) {
        p.relu_sign.push_back(pre[e] > 0.0f ? 1 : 0);
      }
      const MaxPoolResult pooled = maxpool2d_forward(bd::relu(pre), pool);
      p.argmax = pooled.argmax;
      const Var logits = head.forward(flatten2d(Var(pooled.output)));
      p.loss = static_cast<double>(
          mul_scalar(cross_entropy(logits, labels),
                     static_cast<float>(batch))
              .value()[0]);
      return p;
    };
    const Probe hi = probe_at(eps);
    const Probe lo = probe_at(-eps);
    w[i] = saved;
    if (hi.relu_sign != lo.relu_sign || hi.argmax != lo.argmax) continue;
    ++checked;
    const double numeric = (hi.loss - lo.loss) / (2.0 * eps);
    const double bound =
        5e-3 + 2e-2 * std::max(std::fabs(numeric),
                               std::fabs(static_cast<double>(analytic[i])));
    EXPECT_NEAR(analytic[i], numeric, bound) << "conv weight element " << i;
  }
  EXPECT_GE(checked, w.numel() / 2)
      << "too many elements sat on a ReLU/maxpool kink";
}

}  // namespace
}  // namespace bd::ag
