#include "tensor/conv.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace bd {

std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t padding) {
  const std::int64_t out = (in + 2 * padding - kernel) / stride + 1;
  if (out <= 0) {
    throw std::invalid_argument("conv: non-positive output size");
  }
  return out;
}

std::int64_t conv_group_size(std::int64_t sample_floats) {
  // Each group allocates its scratch and frees it when done. A budget below
  // the allocator's mmap threshold (128 KiB in glibc) keeps the blocks on
  // the heap, where the next tensors reuse them, so peak RSS does not grow.
  constexpr std::int64_t kGroupScratchBytes = std::int64_t{1} << 16;
  const std::int64_t bytes =
      std::max<std::int64_t>(1, sample_floats) * std::int64_t{sizeof(float)};
  return std::max<std::int64_t>(1, kGroupScratchBytes / bytes);
}

std::int64_t conv_weight_chunk(std::int64_t weight_floats) {
  // A chunk's per-sample products are its only parallel work, so it keeps
  // this many samples even where they overflow the scratch budget.
  constexpr std::int64_t kMinChunkSamples = 8;
  return std::max(kMinChunkSamples, conv_group_size(weight_floats));
}

Shape conv2d_shape(const Shape& input, const Shape& weight, const Shape* bias,
                   const Conv2dSpec& spec, bool depthwise) {
  const char* op = depthwise ? "depthwise_conv2d" : "conv2d";
  if (input.size() != 4 || weight.size() != 4) {
    throw std::invalid_argument(std::string(op) +
                                ": input and weight must be rank 4");
  }
  if (depthwise) {
    if (weight[0] != input[1] || weight[1] != 1) {
      throw std::invalid_argument(
          "depthwise_conv2d: weight must be (C,1,KH,KW) with C = input "
          "channels, got " +
          shape_string(weight) + " for input " + shape_string(input));
    }
  } else if (weight[1] != input[1]) {
    throw std::invalid_argument("conv2d: input channels " +
                                std::to_string(input[1]) +
                                " != weight channels " +
                                std::to_string(weight[1]));
  }
  const std::int64_t out_channels = weight[0];
  if (bias != nullptr && (bias->size() != 1 || (*bias)[0] != out_channels)) {
    throw std::invalid_argument(std::string(op) +
                                ": bias must be rank 1 of size Cout");
  }
  return {input[0], out_channels,
          conv_out_size(input[2], weight[2], spec.stride, spec.padding),
          conv_out_size(input[3], weight[3], spec.stride, spec.padding)};
}

namespace {

// Shape of one standard convolution: a (C,H,W) image unfolds into a
// (C*KH*KW, OH*OW) patch matrix, and the weight is a (Cout, C*KH*KW) matrix.
struct ConvGeometry {
  std::int64_t c, h, w, kh, kw, oh, ow, cout;
  Conv2dSpec spec;

  ConvGeometry(const Tensor& input, const Tensor& weight,
               const Conv2dSpec& s)
      : c(input.size(1)),
        h(input.size(2)),
        w(input.size(3)),
        kh(weight.size(2)),
        kw(weight.size(3)),
        oh(conv_out_size(h, kh, s.stride, s.padding)),
        ow(conv_out_size(w, kw, s.stride, s.padding)),
        cout(weight.size(0)),
        spec(s) {}

  std::int64_t image() const { return c * h * w; }
  std::int64_t patch_rows() const { return c * kh * kw; }
  std::int64_t plane() const { return oh * ow; }
  // The image with a zero border of `padding` on each side: every kernel
  // tap of every output reads inside it, with no bounds tests.
  std::int64_t hp() const { return h + 2 * spec.padding; }
  std::int64_t wp() const { return w + 2 * spec.padding; }
  std::int64_t padded() const { return c * hp() * wp(); }
};

// Uninitialized scratch of `floats` floats, freed when the caller is done.
std::unique_ptr<float[]> scratch(std::int64_t floats) {
  return std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(floats));
}

// Copies one (C,H,W) image into its zero-bordered padded form.
void pad_image(const ConvGeometry& g, const float* image, float* padded) {
  std::fill(padded, padded + g.padded(), 0.0f);
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    for (std::int64_t y = 0; y < g.h; ++y) {
      const float* src = image + (ch * g.h + y) * g.w;
      std::copy(src, src + g.w,
                padded + (ch * g.hp() + y + g.spec.padding) * g.wp() +
                    g.spec.padding);
    }
  }
}

// Unfolds one padded image into its patch matrix, rows `ld` floats apart.
void im2col(const ConvGeometry& g, const float* padded, float* cols,
            std::int64_t ld) {
  const std::int64_t s = g.spec.stride, wp = g.wp();
  std::int64_t row = 0;
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    for (std::int64_t ky = 0; ky < g.kh; ++ky) {
      for (std::int64_t kx = 0; kx < g.kw; ++kx, ++row) {
        const float* src = padded + (ch * g.hp() + ky) * wp + kx;
        float* out = cols + row * ld;
        for (std::int64_t oy = 0; oy < g.oh; ++oy, out += g.ow) {
          const float* in = src + oy * s * wp;
          for (std::int64_t ox = 0; ox < g.ow; ++ox) out[ox] = in[ox * s];
        }
      }
    }
  }
}

// Folds a patch-gradient matrix (rows `ld` floats apart) into a zeroed
// padded image gradient, adding in (channel, tap, output) order, and writes
// its interior to `image`, a zeroed (C,H,W) gradient that only this call
// touches: every pixel gets the additions an unpadded fold would make.
void col2im(const ConvGeometry& g, const float* cols, std::int64_t ld,
            float* padded, float* image) {
  const std::int64_t s = g.spec.stride, wp = g.wp();
  std::fill(padded, padded + g.padded(), 0.0f);
  std::int64_t row = 0;
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    for (std::int64_t ky = 0; ky < g.kh; ++ky) {
      for (std::int64_t kx = 0; kx < g.kw; ++kx, ++row) {
        float* dst = padded + (ch * g.hp() + ky) * wp + kx;
        const float* in = cols + row * ld;
        for (std::int64_t oy = 0; oy < g.oh; ++oy, in += g.ow) {
          float* out = dst + oy * s * wp;
          for (std::int64_t ox = 0; ox < g.ow; ++ox) out[ox * s] += in[ox];
        }
      }
    }
  }
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    for (std::int64_t y = 0; y < g.h; ++y) {
      const float* src = padded + (ch * g.hp() + y + g.spec.padding) * wp +
                         g.spec.padding;
      std::copy(src, src + g.w, image + (ch * g.h + y) * g.w);
    }
  }
}

// Runs body(first_sample, samples) for consecutive groups of `group`
// samples out of n, one parallel_for chunk per group. A lone group runs
// outside parallel_for, so the GEMM inside it can spread its tiles.
template <typename Body>
void for_each_group(std::int64_t n, std::int64_t group, Body&& body) {
  const std::int64_t groups = (n + group - 1) / group;
  if (groups == 1) {
    body(0, n);
    return;
  }
  runtime::parallel_for(0, groups, 1,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t gi = lo; gi < hi; ++gi) {
                            const std::int64_t s0 = gi * group;
                            body(s0, std::min(group, n - s0));
                          }
                        });
}

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec) {
  Tensor out(conv2d_shape(input.shape(), weight.shape(),
                          bias.defined() ? &bias.shape() : nullptr, spec,
                          /*depthwise=*/false));
  const ConvGeometry g(input, weight, spec);
  const std::int64_t n = input.size(0), cout = g.cout;
  const std::int64_t rows = g.patch_rows(), plane = g.plane();

  // Each group unfolds its samples side by side into one (rows, group*plane)
  // patch block, runs one GEMM against the (cout, rows) weight and scatters
  // the (cout, group*plane) result into NCHW. Groups write disjoint samples.
  for_each_group(
      n, conv_group_size((rows + cout) * plane),
      [&](std::int64_t s0, std::int64_t samples) {
        const std::int64_t ld = samples * plane;
        const auto block = scratch((rows + cout) * ld + g.padded());
        float* cols = block.get();
        float* res = cols + rows * ld;
        float* padded = res + cout * ld;
        for (std::int64_t i = 0; i < samples; ++i) {
          pad_image(g, input.data() + (s0 + i) * g.image(), padded);
          im2col(g, padded, cols + i * plane, ld);
        }
        gemm(false, false, cout, ld, rows, weight.data(), rows, cols, ld, res,
             ld);
        for (std::int64_t i = 0; i < samples; ++i) {
          for (std::int64_t c = 0; c < cout; ++c) {
            const float* src = res + c * ld + i * plane;
            float* dst = out.data() + ((s0 + i) * cout + c) * plane;
            if (!bias.defined()) {
              std::copy(src, src + plane, dst);
              continue;
            }
            const float b = bias[c];
            for (std::int64_t j = 0; j < plane; ++j) dst[j] = src[j] + b;
          }
        }
      });
  return out;
}

namespace {

// grad_input: per group, gather dOut into (cout, group*plane), take
// W^T * dOut with one GEMM and fold each sample's columns back onto its
// own (disjoint) image gradient.
Tensor conv2d_grad_input(const ConvGeometry& g, const Tensor& input,
                         const Tensor& weight, const Tensor& grad_output) {
  const std::int64_t n = input.size(0), cout = g.cout;
  const std::int64_t rows = g.patch_rows(), plane = g.plane();
  Tensor grad_input(input.shape());
  for_each_group(
      n, conv_group_size((rows + cout) * plane),
      [&](std::int64_t s0, std::int64_t samples) {
        const std::int64_t ld = samples * plane;
        const auto block = scratch((rows + cout) * ld + g.padded());
        float* dout = block.get();
        float* dcols = dout + cout * ld;
        float* padded = dcols + rows * ld;
        for (std::int64_t i = 0; i < samples; ++i) {
          for (std::int64_t c = 0; c < cout; ++c) {
            const float* src =
                grad_output.data() + ((s0 + i) * cout + c) * plane;
            std::copy(src, src + plane, dout + c * ld + i * plane);
          }
        }
        gemm(true, false, rows, ld, cout, weight.data(), rows, dout, ld,
             dcols, ld);
        for (std::int64_t i = 0; i < samples; ++i) {
          col2im(g, dcols + i * plane, ld, padded,
                 grad_input.data() + (s0 + i) * g.image());
        }
      });
  return grad_input;
}

// grad_weight sums the per-sample products dOut_i * cols_i^T over the
// batch. Each chunk of samples computes its products in parallel into one
// scratch block; they are then added to grad_weight in sample order,
// parallel over weight elements. Every element thus sees the same
// additions in the same order for any thread count.
Tensor conv2d_grad_weight(const ConvGeometry& g, const Tensor& input,
                          const Tensor& weight, const Tensor& grad_output) {
  const std::int64_t n = input.size(0), cout = g.cout;
  const std::int64_t rows = g.patch_rows(), plane = g.plane();
  Tensor grad_weight(weight.shape());
  const std::int64_t wsize = cout * rows;
  const std::int64_t chunk = conv_weight_chunk(wsize);
  const auto products = scratch(std::min(chunk, n) * wsize);
  float* gw = grad_weight.data();
  for (std::int64_t s0 = 0; s0 < n; s0 += chunk) {
    const std::int64_t samples = std::min(chunk, n - s0);
    for_each_group(samples, 1, [&](std::int64_t i, std::int64_t) {
      const auto block = scratch(rows * plane + g.padded());
      float* cols = block.get();
      float* padded = cols + rows * plane;
      pad_image(g, input.data() + (s0 + i) * g.image(), padded);
      im2col(g, padded, cols, plane);
      gemm(false, true, cout, rows, plane,
           grad_output.data() + (s0 + i) * cout * plane, plane, cols, plane,
           products.get() + i * wsize, rows);
    });
    runtime::parallel_for(0, wsize, kElemwiseGrain,
                          [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = 0; i < samples; ++i) {
                              const float* p = products.get() + i * wsize;
                              for (std::int64_t e = lo; e < hi; ++e) {
                                gw[e] += p[e];
                              }
                            }
                          });
  }
  return grad_weight;
}

// Per channel: each sample's plane sum (in double), added in order.
Tensor conv2d_grad_bias(const Tensor& grad_output) {
  const std::int64_t n = grad_output.size(0), cout = grad_output.size(1);
  const std::int64_t plane = grad_output.size(2) * grad_output.size(3);
  Tensor grad_bias({cout});
  runtime::parallel_for(
      0, cout, runtime::grain_for_cost(n * plane),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t c = lo; c < hi; ++c) {
          for (std::int64_t i = 0; i < n; ++i) {
            const float* row = grad_output.data() + (i * cout + c) * plane;
            double s = 0.0;
            for (std::int64_t j = 0; j < plane; ++j) s += row[j];
            grad_bias[c] += static_cast<float>(s);
          }
        }
      });
  return grad_bias;
}

}  // namespace

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            bool has_bias, const Tensor& grad_output,
                            const Conv2dSpec& spec, bool need_input,
                            bool need_weight) {
  const ConvGeometry g(input, weight, spec);
  Conv2dGrads grads;
  if (need_input) {
    grads.grad_input = conv2d_grad_input(g, input, weight, grad_output);
  }
  if (need_weight) {
    grads.grad_weight = conv2d_grad_weight(g, input, weight, grad_output);
  }
  if (has_bias) grads.grad_bias = conv2d_grad_bias(grad_output);
  return grads;
}

Tensor depthwise_conv2d_forward(const Tensor& input, const Tensor& weight,
                                const Tensor& bias, const Conv2dSpec& spec) {
  Tensor out(conv2d_shape(input.shape(), weight.shape(),
                          bias.defined() ? &bias.shape() : nullptr, spec,
                          /*depthwise=*/true));
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = out.size(2), ow = out.size(3);
  // Every (sample, channel) plane is independent; parallelize over the
  // flattened plane index.
  runtime::parallel_for(
      0, n * c, runtime::grain_for_cost(oh * ow * kh * kw),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const std::int64_t ch = p % c;
          const float* chan = input.data() + p * h * w;
          const float* ker = weight.data() + ch * kh * kw;
          const float b = bias.defined() ? bias[ch] : 0.0f;
          float* ochan = out.data() + p * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              float acc = b;
              for (std::int64_t ky = 0; ky < kh; ++ky) {
                const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                if (iy < 0 || iy >= h) continue;
                for (std::int64_t kx = 0; kx < kw; ++kx) {
                  const std::int64_t ix = ox * spec.stride - spec.padding + kx;
                  if (ix < 0 || ix >= w) continue;
                  acc += chan[iy * w + ix] * ker[ky * kw + kx];
                }
              }
              ochan[oy * ow + ox] = acc;
            }
          }
        }
      });
  return out;
}

Conv2dGrads depthwise_conv2d_backward(const Tensor& input,
                                      const Tensor& weight, bool has_bias,
                                      const Tensor& grad_output,
                                      const Conv2dSpec& spec) {
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = grad_output.size(2), ow = grad_output.size(3);

  Conv2dGrads grads;
  grads.grad_input = Tensor(input.shape());
  grads.grad_weight = Tensor(weight.shape());
  if (has_bias) grads.grad_bias = Tensor({c});

  // Kernel and bias gradients accumulate across the batch per channel, so
  // parallelize over channels and keep the per-channel sample loop serial:
  // each grad element still sees its additions in the original i-ascending
  // order, and grad_input planes stay disjoint — bitwise identical to the
  // legacy serial loop for any thread count.
  runtime::parallel_for(
      0, c, runtime::grain_for_cost(n * oh * ow * kh * kw),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t ch = lo; ch < hi; ++ch) {
          const float* ker = weight.data() + ch * kh * kw;
          float* gker = grads.grad_weight.data() + ch * kh * kw;
          for (std::int64_t i = 0; i < n; ++i) {
            const float* chan = input.data() + (i * c + ch) * h * w;
            const float* gchan = grad_output.data() + (i * c + ch) * oh * ow;
            float* gin = grads.grad_input.data() + (i * c + ch) * h * w;
            double gbias = 0.0;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
              for (std::int64_t ox = 0; ox < ow; ++ox) {
                const float g = gchan[oy * ow + ox];
                gbias += g;
                for (std::int64_t ky = 0; ky < kh; ++ky) {
                  const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                  if (iy < 0 || iy >= h) continue;
                  for (std::int64_t kx = 0; kx < kw; ++kx) {
                    const std::int64_t ix =
                        ox * spec.stride - spec.padding + kx;
                    if (ix < 0 || ix >= w) continue;
                    gin[iy * w + ix] += g * ker[ky * kw + kx];
                    gker[ky * kw + kx] += g * chan[iy * w + ix];
                  }
                }
              }
            }
            if (has_bias) grads.grad_bias[ch] += static_cast<float>(gbias);
          }
        }
      });
  return grads;
}

}  // namespace bd
