#include "tensor/conv.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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

// Shape of one standard convolution, and the layout its GEMMs read. The
// weight is a (Cout, C*KH*KW) matrix. Each image is zero-bordered by
// `padding` (Hp x Wp) and split by (y mod stride, x mod stride) into phase
// planes of Hl x Wl: padded pixel (c, y, x) lands at at(c, y, x). Only the
// phases some tap lands on are kept: y mod stride < KH, x mod stride < KW.
// Patch row (c, ky, kx) of output (oy, ox) is padded pixel (c, oy*stride +
// ky, ox*stride + kx), which sits at at(c, ky, kx) + oy*Wl + ox. So the
// GEMM's columns are the positions of an OH x Wl grid (its last row cut at
// OW), every patch row is read in place at its tap offset at any stride,
// and the Wl - OW columns past each output row are computed and dropped.
// At stride 1 there is one phase and the split image is the padded image.
struct ConvGeometry {
  std::int64_t c, h, w, kh, kw, oh, ow, cout, s, pad;
  std::int64_t ph, pw;  // phases kept along y and x
  std::int64_t hl, wl;  // phase plane

  ConvGeometry(const Tensor& input, const Tensor& weight,
               const Conv2dSpec& spec)
      : c(input.size(1)),
        h(input.size(2)),
        w(input.size(3)),
        kh(weight.size(2)),
        kw(weight.size(3)),
        oh(conv_out_size(h, kh, spec.stride, spec.padding)),
        ow(conv_out_size(w, kw, spec.stride, spec.padding)),
        cout(weight.size(0)),
        s(spec.stride),
        pad(spec.padding),
        ph(std::min(s, kh)),
        pw(std::min(s, kw)),
        hl((h + 2 * pad + s - 1) / s),
        wl((w + 2 * pad + s - 1) / s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t y = 0; y < h; ++y) {
        if ((y + pad) % s >= ph) continue;
        for (std::int64_t x = 0; x < std::min(s, w); ++x) {
          if ((x + pad) % s >= pw) continue;
          runs.push_back({at(ch, y + pad, x + pad), (ch * h + y) * w + x,
                          (w - x + s - 1) / s});
        }
      }
    }
  }

  std::int64_t image() const { return c * h * w; }
  std::int64_t patch_rows() const { return c * kh * kw; }
  std::int64_t plane() const { return oh * ow; }
  std::int64_t columns() const { return (oh - 1) * wl + ow; }
  // Floats of one channel's phase planes, and of a split image.
  std::int64_t channel() const { return ph * pw * hl * wl; }
  std::int64_t split() const { return c * channel(); }

  // Where padded pixel (ch, y, x) of a kept phase sits in the split image.
  std::int64_t at(std::int64_t ch, std::int64_t y, std::int64_t x) const {
    return ((ch * ph + y % s) * pw + x % s) * hl * wl + (y / s) * wl + x / s;
  }

  // The tap offset of each patch row (c, ky, kx), in the weight's column
  // order.
  std::vector<std::int64_t> taps() const {
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(patch_rows()));
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) out.push_back(at(ch, ky, kx));
      }
    }
    return out;
  }

  // Copies one (C,H,W) image's pixels into a split image whose other
  // floats (its border and the phases no tap reads) are already zero.
  void split_image(const float* image, float* dst) const {
    for (const Run& run : runs) {
      const float* src = image + run.image;
      float* to = dst + run.split;
      for (std::int64_t i = 0; i < run.count; ++i) to[i] = src[i * s];
    }
  }

  // Copies the pixels of a split image that are in the image (not its
  // border) to a zeroed (C,H,W) image.
  void join_image(const float* src, float* image) const {
    for (const Run& run : runs) {
      const float* from = src + run.split;
      float* to = image + run.image;
      for (std::int64_t i = 0; i < run.count; ++i) to[i * s] = from[i];
    }
  }

  // The image's pixels as runs that are consecutive in the split image:
  // image pixel image + i*stride is split float split + i for i < count.
  struct Run {
    std::int64_t split, image, count;
  };
  std::vector<Run> runs;
};

// Uninitialized scratch of `floats` floats, freed when the caller is done.
std::unique_ptr<float[]> scratch(std::int64_t floats) {
  return std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(floats));
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
  const std::int64_t cols = g.columns();
  const std::vector<std::int64_t> taps = g.taps();
  const GemmPackedA w(cout, rows, {weight.data(), rows, 1});
  // Where the grid has columns past OW, each sample's (Cout, cols) product
  // lands in scratch and the scatter keeps OW of every Wl; otherwise it
  // lands in the output. Samples run in parallel and write disjoint outputs.
  const bool cut = cols != plane;
  const std::int64_t res_floats = cut ? cout * cols + kGemmSlack : 0;
  runtime::parallel_for(
      0, n, runtime::grain_for_cost(cout * rows * cols),
      [&](std::int64_t lo, std::int64_t hi) {
        const auto block = scratch(g.split() + kGemmSlack + res_floats);
        float* image = block.get();
        float* res = image + g.split() + kGemmSlack;
        std::fill(image, res + res_floats, 0.0f);
        for (std::int64_t i = lo; i < hi; ++i) {
          g.split_image(input.data() + i * g.image(), image);
          float* o = out.data() + i * cout * plane;
          gemm_packed(w, cols, {image, taps.data(), nullptr, true},
                      cut ? GemmC{res, cols, nullptr, true, false}
                          : GemmC{o, plane, nullptr, false, false});
          if (!cut && !bias.defined()) continue;
          for (std::int64_t co = 0; co < cout; ++co) {
            const float* src = cut ? res + co * cols : o + co * plane;
            float* dst = o + co * plane;
            for (std::int64_t oy = 0; oy < g.oh; ++oy) {
              const float* from = src + oy * (cut ? g.wl : g.ow);
              float* to = dst + oy * g.ow;
              if (!bias.defined()) {
                for (std::int64_t ox = 0; ox < g.ow; ++ox) to[ox] = from[ox];
                continue;
              }
              const float b = bias[co];
              for (std::int64_t ox = 0; ox < g.ow; ++ox) to[ox] = from[ox] + b;
            }
          }
        }
      });
  return out;
}

namespace {

// grad_input, per sample: one accumulating GEMM per tap (ky, kx), taps in
// order, adds W(:, :, ky, kx)^T * dOut_i into the split input gradient at
// the tap's offset; its unpadded pixels are then the sample's gradient.
// Every pixel gets its taps' sums in tap order, as a fold of the patch
// gradient would add them.
Tensor conv2d_grad_input(const ConvGeometry& g, const Tensor& input,
                         const Tensor& weight, const Tensor& grad_output) {
  const std::int64_t n = input.size(0), cout = g.cout, plane = g.plane();
  const std::int64_t cols = g.columns(), taps = g.kh * g.kw;
  Tensor grad_input(input.shape());
  // Tap t's (C, Cout) matrix: A(c, co) = W[co, c, t].
  std::vector<GemmPackedA> tap_w;
  tap_w.reserve(static_cast<std::size_t>(taps));
  for (std::int64_t t = 0; t < taps; ++t) {
    tap_w.emplace_back(g.c, cout, GemmA{weight.data() + t, taps, g.c * taps});
  }
  // B is dOut_i copied onto the grid; C keeps its columns inside each
  // output row.
  std::vector<std::int64_t> b_row(static_cast<std::size_t>(cout));
  for (std::int64_t co = 0; co < cout; ++co) b_row[co] = co * cols;
  std::vector<std::int64_t> c_col(static_cast<std::size_t>(cols));
  for (std::int64_t j = 0; j < cols; ++j) c_col[j] = j % g.wl < g.ow ? j : -1;
  const std::int64_t grid = cout * cols + kGemmSlack;
  runtime::parallel_for(
      0, n, runtime::grain_for_cost(taps * g.c * cout * cols),
      [&](std::int64_t lo, std::int64_t hi) {
        const auto block = scratch(g.split() + kGemmSlack + grid);
        float* split = block.get();
        float* dgrid = split + g.split() + kGemmSlack;
        std::fill(dgrid, dgrid + grid, 0.0f);
        for (std::int64_t i = lo; i < hi; ++i) {
          const float* dout = grad_output.data() + i * cout * plane;
          for (std::int64_t co = 0; co < cout; ++co) {
            for (std::int64_t oy = 0; oy < g.oh; ++oy) {
              const float* src = dout + co * plane + oy * g.ow;
              float* dst = dgrid + co * cols + oy * g.wl;
              for (std::int64_t ox = 0; ox < g.ow; ++ox) dst[ox] = src[ox];
            }
          }
          std::fill(split, split + g.split() + kGemmSlack, 0.0f);
          for (std::int64_t ky = 0; ky < g.kh; ++ky) {
            for (std::int64_t kx = 0; kx < g.kw; ++kx) {
              gemm_packed(tap_w[ky * g.kw + kx], cols,
                          {dgrid, b_row.data(), nullptr, true},
                          {split + g.at(0, ky, kx), g.channel(),
                           c_col.data(), true, true});
            }
          }
          g.join_image(split, grad_input.data() + i * g.image());
        }
      });
  return grad_input;
}

// grad_weight adds, for samples in order, dOut_i * patches_i^T: B(o, row)
// of sample i is its split image's float at tap(row) + window(o). Each task
// owns a strip of weight columns and runs every sample on it into a tile
// of its own that starts at +0, as the zeroed gradient does, then stores
// the tile once. So each element gets its samples' sums (each formed from
// +0 over the positions in order) added in sample order, for any thread
// count, and no two tasks write a cache line of the gradient per sample.
Tensor conv2d_grad_weight(const ConvGeometry& g, const Tensor& input,
                          const Tensor& weight, const Tensor& grad_output) {
  const std::int64_t n = input.size(0), cout = g.cout;
  const std::int64_t rows = g.patch_rows(), plane = g.plane();
  Tensor grad_weight(weight.shape());
  const std::vector<std::int64_t> taps = g.taps();
  std::vector<std::int64_t> windows;
  windows.reserve(static_cast<std::size_t>(plane));
  for (std::int64_t oy = 0; oy < g.oh; ++oy) {
    for (std::int64_t ox = 0; ox < g.ow; ++ox) {
      windows.push_back(oy * g.wl + ox);
    }
  }
  // Every sample's split image and packed dOut_i, made once, in parallel.
  const auto images = scratch(n * g.split());
  std::vector<GemmPackedA> douts(static_cast<std::size_t>(n));
  runtime::parallel_for(
      0, n, runtime::grain_for_cost(g.split() + cout * plane),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          float* image = images.get() + i * g.split();
          std::fill(image, image + g.split(), 0.0f);
          g.split_image(input.data() + i * g.image(), image);
          douts[i] = GemmPackedA(
              cout, plane, {grad_output.data() + i * cout * plane, plane, 1});
        }
      });
  constexpr std::int64_t kStrip = kGemmSlack;  // the widest kernel's strip
  runtime::parallel_for(
      0, (rows + kStrip - 1) / kStrip,
      runtime::grain_for_cost(n * cout * kStrip * plane),
      [&](std::int64_t lo, std::int64_t hi) {
        const std::int64_t c0 = lo * kStrip;
        const std::int64_t width = std::min(rows, hi * kStrip) - c0;
        // Each tile row owns kGemmSlack floats past its columns, so a
        // partial strip is stored as masked vectors.
        const std::int64_t ld = width + kGemmSlack;
        const auto tile = scratch(cout * ld);
        std::fill(tile.get(), tile.get() + cout * ld, 0.0f);
        for (std::int64_t i = 0; i < n; ++i) {
          gemm_packed(douts[i], width,
                      {images.get() + i * g.split(), windows.data(),
                       taps.data() + c0, false},
                      {tile.get(), ld, nullptr, true, true});
        }
        for (std::int64_t co = 0; co < cout; ++co) {
          std::copy_n(tile.get() + co * ld, width,
                      grad_weight.data() + co * rows + c0);
        }
      });
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
                                      const Conv2dSpec& spec, bool need_input,
                                      bool need_weight) {
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = grad_output.size(2), ow = grad_output.size(3);

  Conv2dGrads grads;
  if (need_input) grads.grad_input = Tensor(input.shape());
  if (need_weight) grads.grad_weight = Tensor(weight.shape());
  if (has_bias) grads.grad_bias = Tensor({c});
  if (!need_input && !need_weight && !has_bias) return grads;

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
          float* gker =
              need_weight ? grads.grad_weight.data() + ch * kh * kw : nullptr;
          for (std::int64_t i = 0; i < n; ++i) {
            const float* chan = input.data() + (i * c + ch) * h * w;
            const float* gchan = grad_output.data() + (i * c + ch) * oh * ow;
            float* gin = need_input
                             ? grads.grad_input.data() + (i * c + ch) * h * w
                             : nullptr;
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
                    if (need_input) {
                      gin[iy * w + ix] += g * ker[ky * kw + kx];
                    }
                    if (need_weight) {
                      gker[ky * kw + kx] += g * chan[iy * w + ix];
                    }
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
