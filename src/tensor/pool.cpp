#include "tensor/pool.h"

#include <limits>
#include <stdexcept>

#include "runtime/thread_pool.h"
#include "tensor/conv.h"

namespace bd {

namespace {
void check_nchw(const Shape& input) {
  if (input.size() != 4) {
    throw std::invalid_argument("pool2d: input must be rank 4 (NCHW)");
  }
}
}  // namespace

Shape pool2d_shape(const Shape& input, const Pool2dSpec& spec) {
  check_nchw(input);
  return {input[0], input[1],
          conv_out_size(input[2], spec.kernel, spec.stride, spec.padding),
          conv_out_size(input[3], spec.kernel, spec.stride, spec.padding)};
}

Shape global_avgpool_shape(const Shape& input) {
  check_nchw(input);
  return {input[0], input[1], 1, 1};
}

MaxPoolResult maxpool2d_forward(const Tensor& input, const Pool2dSpec& spec,
                                bool keep_argmax) {
  MaxPoolResult result;
  result.output = Tensor(pool2d_shape(input.shape(), spec));
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t oh = result.output.size(2), ow = result.output.size(3);
  if (keep_argmax) {
    result.argmax.resize(static_cast<std::size_t>(n * c * oh * ow));
  }
  std::int64_t* argmax = keep_argmax ? result.argmax.data() : nullptr;

  const float* pin = input.data();
  float* pout = result.output.data();

  // (sample, channel) planes are independent — parallelize over them.
  runtime::parallel_for(
      0, n * c,
      runtime::grain_for_cost(oh * ow * spec.kernel * spec.kernel),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const std::int64_t base = p * h * w;
          std::int64_t oi = p * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
              float best = -std::numeric_limits<float>::infinity();
              std::int64_t best_idx = -1;
              for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
                const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                if (iy < 0 || iy >= h) continue;
                for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                  const std::int64_t ix = ox * spec.stride - spec.padding + kx;
                  if (ix < 0 || ix >= w) continue;
                  const std::int64_t idx = base + iy * w + ix;
                  if (pin[idx] > best) {
                    best = pin[idx];
                    best_idx = idx;
                  }
                }
              }
              pout[oi] = (best_idx >= 0) ? best : 0.0f;
              if (argmax != nullptr) argmax[oi] = best_idx;
            }
          }
        }
      });
  return result;
}

Tensor maxpool2d_backward(const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_output) {
  Tensor grad_input(input_shape);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  // Argmax indices always point inside the plane that produced them, so
  // scattering per (sample, channel) plane never crosses chunk boundaries
  // even when pooling windows overlap.
  const std::int64_t plane = grad_output.size(2) * grad_output.size(3);
  const std::int64_t planes = grad_output.numel() / plane;
  runtime::parallel_for(0, planes, runtime::grain_for_cost(plane),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t p = lo; p < hi; ++p) {
                            for (std::int64_t i = p * plane;
                                 i < (p + 1) * plane; ++i) {
                              const std::int64_t idx =
                                  argmax[static_cast<std::size_t>(i)];
                              if (idx >= 0) gi[idx] += go[i];
                            }
                          }
                        });
  return grad_input;
}

Tensor global_avgpool_forward(const Tensor& input) {
  Tensor out(global_avgpool_shape(input.shape()));
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t hw = input.size(2) * input.size(3);
  const float* pin = input.data();
  float* pout = out.data();
  runtime::parallel_for(0, n * c, runtime::grain_for_cost(hw),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            double acc = 0.0;
                            const float* plane = pin + i * hw;
                            for (std::int64_t j = 0; j < hw; ++j) {
                              acc += plane[j];
                            }
                            pout[i] =
                                static_cast<float>(acc / static_cast<double>(hw));
                          }
                        });
  return out;
}

Tensor global_avgpool_backward(const Shape& input_shape,
                               const Tensor& grad_output) {
  Tensor grad_input(input_shape);
  const std::int64_t n = input_shape[0], c = input_shape[1];
  const std::int64_t hw = input_shape[2] * input_shape[3];
  const float inv = 1.0f / static_cast<float>(hw);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  runtime::parallel_for(0, n * c, runtime::grain_for_cost(hw),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            const float g = go[i] * inv;
                            float* plane = gi + i * hw;
                            for (std::int64_t j = 0; j < hw; ++j) plane[j] = g;
                          }
                        });
  return grad_input;
}

}  // namespace bd
