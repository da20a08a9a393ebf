#include "tensor/batch_norm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"

namespace bd {

namespace {

// An NCHW tensor as (N, C, H*W): channel c's D = N*H*W elements are N runs
// of H*W contiguous floats, run r starting at (r*C + c) * H*W.
struct Layout {
  std::int64_t n, c, hw;

  explicit Layout(const Shape& s) : n(s[0]), c(s[1]), hw(s[2] * s[3]) {}
  std::int64_t per_channel() const { return n * hw; }
  std::int64_t run(std::int64_t r, std::int64_t ch) const {
    return (r * c + ch) * hw;
  }

  // Calls f(i) for channel ch's flat indices, in (n, hw) order.
  template <typename F>
  void each(std::int64_t ch, F f) const {
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int64_t base = run(r, ch);
      for (std::int64_t j = 0; j < hw; ++j) f(base + j);
    }
  }

  // K sums side by side, each one chain from +0 over the positions (r, j)
  // of a channel in (n, hw) order: sum k adds terms(r, j)[k]. Independent
  // chains overlap their adds; each keeps its own order. With `bare`, a
  // single position's sum is its term itself, as the gradient reduction of
  // a broadcast (reduce_to_shape) leaves it.
  template <std::size_t K, typename Terms>
  std::array<float, K> sums(bool bare, Terms terms) const {
    if (bare && per_channel() == 1) return terms(0, 0);
    std::array<float, K> sum{};
    for (std::int64_t r = 0; r < n; ++r) {
      for (std::int64_t j = 0; j < hw; ++j) {
        const std::array<float, K> t = terms(r, j);
        for (std::size_t k = 0; k < K; ++k) sum[k] += t[k];
      }
    }
    return sum;
  }
};

// Channels whose sums run side by side in the single-sum passes; a block
// past the last channel repeats it.
constexpr std::int64_t kBlock = 4;

std::array<std::int64_t, kBlock> block_of(std::int64_t c0, std::int64_t hi) {
  std::array<std::int64_t, kBlock> ch{};
  for (std::int64_t k = 0; k < kBlock; ++k) ch[k] = std::min(c0 + k, hi - 1);
  return ch;
}

void check_channels(const Shape& s, std::int64_t c, const char* what) {
  if (s.size() != 1 || s[0] != c) {
    throw std::invalid_argument(std::string("batch_norm: ") + what +
                                " must be (" + std::to_string(c) + "), got " +
                                shape_string(s));
  }
}

// Channels per parallel chunk: at least kElemwiseGrain's 2^15 elements a
// chunk, as the elementwise kernels split.
std::int64_t channel_grain(const Layout& l) {
  return runtime::grain_for_cost(l.per_channel());
}

}  // namespace

Shape batch_norm_shape(const Shape& input, const Shape& gamma,
                       const Shape* delta, const Shape& beta,
                       const Shape* mask) {
  if (input.size() != 4) {
    throw std::invalid_argument(
        "batch_norm: expected an (N,C,H,W) input, got " +
        shape_string(input));
  }
  const std::int64_t c = input[1];
  check_channels(gamma, c, "gamma");
  if (delta != nullptr) check_channels(*delta, c, "delta");
  check_channels(beta, c, "beta");
  if (mask != nullptr) check_channels(*mask, c, "mask");
  return input;
}

BatchNormResult batch_norm_forward(const Tensor& input, const Tensor& gamma,
                                   const Tensor& delta, const Tensor& beta,
                                   const Tensor& mask,
                                   const BatchNormSpec& spec) {
  const bool has_delta = delta.defined(), has_mask = mask.defined();
  const Shape shape =
      batch_norm_shape(input.shape(), gamma.shape(),
                       has_delta ? &delta.shape() : nullptr, beta.shape(),
                       has_mask ? &mask.shape() : nullptr);
  const Layout l(shape);
  if (!spec.training) {
    check_channels(spec.running_mean.shape(), l.c, "running_mean");
    check_channels(spec.running_var.shape(), l.c, "running_var");
  }
  const Shape cs{l.c};
  BatchNormResult r{Tensor(shape),
                    {Tensor(cs), Tensor(cs), Tensor(cs), Tensor(cs),
                     has_delta ? Tensor(cs) : Tensor()}};
  BatchNormStats& st = r.stats;
  // reduce_mean's scale: 1 / (float)D.
  const float inv = 1.0f / static_cast<float>(l.per_channel());
  const float* x = input.data();
  float* out = r.output.data();
  runtime::parallel_for(0, l.c, channel_grain(l), [&](std::int64_t lo,
                                                      std::int64_t hi) {
    for (std::int64_t c0 = lo; c0 < hi; c0 += kBlock) {
      const std::array<std::int64_t, kBlock> ch = block_of(c0, hi);
      std::array<float, kBlock> mean{}, var{};
      if (spec.training) {
        const auto sum = l.sums<kBlock>(false, [&](std::int64_t n,
                                                   std::int64_t j) {
          std::array<float, kBlock> t;
          for (std::int64_t k = 0; k < kBlock; ++k) {
            t[k] = x[l.run(n, ch[k]) + j];
          }
          return t;
        });
        for (std::int64_t k = 0; k < kBlock; ++k) mean[k] = sum[k] * inv;
        const auto sq = l.sums<kBlock>(false, [&](std::int64_t n,
                                                  std::int64_t j) {
          std::array<float, kBlock> t;
          for (std::int64_t k = 0; k < kBlock; ++k) {
            const float centered = x[l.run(n, ch[k]) + j] - mean[k];
            t[k] = centered * centered;
          }
          return t;
        });
        for (std::int64_t k = 0; k < kBlock; ++k) var[k] = sq[k] * inv;
      } else {
        for (std::int64_t k = 0; k < kBlock; ++k) {
          mean[k] = spec.running_mean[ch[k]];
          var[k] = spec.running_var[ch[k]];
        }
      }
      for (std::int64_t k = 0; k < std::min(kBlock, hi - c0); ++k) {
        st.mean[c0 + k] = mean[k];
        st.var[c0 + k] = var[k];
      }
    }
    for (std::int64_t ch = lo; ch < hi; ++ch) {
      const float mean = st.mean[ch];
      const float sd = std::sqrt(st.var[ch] + spec.eps);
      float scale = gamma[ch];
      if (has_delta) {
        const float p = delta[ch] + 1.0f;
        st.delta_plus_one[ch] = p;
        scale = gamma[ch] * p;
      }
      st.std[ch] = sd;
      st.scale[ch] = scale;
      const float b = beta[ch];
      if (has_mask) {
        const float m = mask[ch];
        l.each(ch, [&](std::int64_t i) {
          out[i] = (((x[i] - mean) / sd) * scale + b) * m;
        });
      } else {
        l.each(ch, [&](std::int64_t i) {
          out[i] = ((x[i] - mean) / sd) * scale + b;
        });
      }
    }
  });
  return r;
}

BatchNormGrads batch_norm_backward(const Tensor& grad_output,
                                   const Tensor& input, const Tensor& gamma,
                                   const Tensor& beta, const Tensor& mask,
                                   const BatchNormSpec& spec,
                                   const BatchNormStats& stats,
                                   const BatchNormNeeds& need) {
  check_same_shape(grad_output.shape(), input.shape(), "batch_norm_backward");
  const Layout l(input.shape());
  const bool has_mask = mask.defined();
  const bool has_delta = stats.delta_plus_one.defined();
  const bool want_mask = need.mask && has_mask;
  const bool want_delta = need.delta && has_delta;
  const bool train_x = need.input && spec.training;
  const bool split = train_x && need.split_input;
  const Shape cs{l.c};
  BatchNormGrads r;
  if (need.input) r.grad_input = Tensor(input.shape());
  if (split) r.grad_input_mean = Tensor(input.shape());
  if (need.gamma) r.grad_gamma = Tensor(cs);
  if (want_delta) r.grad_delta = Tensor(cs);
  if (need.beta) r.grad_beta = Tensor(cs);
  if (want_mask) r.grad_mask = Tensor(cs);
  std::vector<float> gsq_of(static_cast<std::size_t>(l.c));

  // Only the mask's sum (ANP's search, whose model is frozen).
  const bool mask_only = !need.gamma && !want_delta && !need.beta && !train_x;

  const float inv = 1.0f / static_cast<float>(l.per_channel());
  const float* gout = grad_output.data();
  const float* x = input.data();
  float* gx = need.input ? r.grad_input.data() : nullptr;
  runtime::parallel_for(0, l.c, channel_grain(l), [&](std::int64_t lo,
                                                      std::int64_t hi) {
    // g = G * mask is the gradient of the affine output (G without a
    // mask), and xhat = (x - m) / std.
    const auto m_of = [&](std::int64_t ch) {
      return has_mask ? mask[ch] : 1.0f;
    };
    for (std::int64_t ch = lo; ch < hi; ++ch) {
      const float mean = stats.mean[ch], sd = stats.std[ch];
      const float s = stats.scale[ch], b = beta[ch], m = m_of(ch);
      const float sd2 = sd * sd;
      // The parameters' sums: the mask's, beta's, the scale's, and std's
      // (read for x in training).
      const auto terms = [&](std::int64_t n, std::int64_t j) {
        const std::int64_t i = l.run(n, ch) + j;
        const float go = gout[i];
        const float g = has_mask ? go * m : go;
        const float centered = x[i] - mean;
        const float xhat = centered / sd;
        return std::array<float, 4>{go * (xhat * s + b), g, g * xhat,
                                    -(((g * s) * centered) / sd2)};
      };
      std::array<float, 4> sum{};
      if (!mask_only) {
        sum = l.sums<4>(true, terms);
      } else if (want_mask) {
        sum[0] = l.sums<1>(true, [&](std::int64_t n, std::int64_t j) {
          return std::array<float, 1>{terms(n, j)[0]};
        })[0];
      }
      if (want_mask) r.grad_mask[ch] = sum[0];
      if (need.beta) r.grad_beta[ch] = sum[1];
      if (need.gamma) {
        r.grad_gamma[ch] =
            has_delta ? sum[2] * stats.delta_plus_one[ch] : sum[2];
      }
      if (want_delta) r.grad_delta[ch] = sum[2] * gamma[ch];
      if (need.input && !spec.training) {
        l.each(ch, [&](std::int64_t i) {
          const float g = has_mask ? gout[i] * m : gout[i];
          gx[i] = (g * s) / sd;
        });
      }
      // std's gradient through sqrt, the variance's scale and reduce_sum's
      // broadcast onto the squares.
      if (train_x) gsq_of[ch] = ((sum[3] / (sd * 2.0f)) * inv) + 0.0f;
    }
    if (!train_x) return;

    // The centered value's gradient: xhat's, then the square's two, each
    // a = gsq * (x - m). The mean's is the sum of its negation, through the
    // mean's scale and reduce_sum's broadcast.
    float* gxm = split ? r.grad_input_mean.data() : nullptr;
    for (std::int64_t c0 = lo; c0 < hi; c0 += kBlock) {
      const std::array<std::int64_t, kBlock> ch = block_of(c0, hi);
      std::array<float, kBlock> mean, sd, s, m, gsq;
      for (std::int64_t k = 0; k < kBlock; ++k) {
        mean[k] = stats.mean[ch[k]];
        sd[k] = stats.std[ch[k]];
        s[k] = stats.scale[ch[k]];
        m[k] = m_of(ch[k]);
        gsq[k] = gsq_of[ch[k]];
      }
      const auto gmean = l.sums<kBlock>(true, [&](std::int64_t n,
                                                  std::int64_t j) {
        std::array<float, kBlock> t;
        for (std::int64_t k = 0; k < kBlock; ++k) {
          const std::int64_t i = l.run(n, ch[k]) + j;
          const float g = has_mask ? gout[i] * m[k] : gout[i];
          const float a = gsq[k] * (x[i] - mean[k]);
          const float gc = (((g * s[k]) / sd[k]) + a) + a;
          gx[i] = gc;
          t[k] = -gc;
        }
        return t;
      });
      for (std::int64_t k = 0; k < std::min(kBlock, hi - c0); ++k) {
        const float gm = (gmean[k] * inv) + 0.0f;
        if (split) {
          l.each(ch[k], [&](std::int64_t i) { gxm[i] = gm; });
        } else {
          l.each(ch[k], [&](std::int64_t i) { gx[i] = gx[i] + gm; });
        }
      }
    }
  });
  return r;
}

}  // namespace bd
