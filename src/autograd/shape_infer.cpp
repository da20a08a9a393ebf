#include "autograd/shape_infer.h"

#include <stdexcept>
#include <string>

namespace bd::ag {

std::vector<std::int64_t> normalize_axes(
    const std::vector<std::int64_t>& axes, std::size_t rank) {
  std::vector<std::int64_t> out;
  out.reserve(axes.size());
  for (std::int64_t ax : axes) {
    if (ax < 0) ax += static_cast<std::int64_t>(rank);
    if (ax < 0 || ax >= static_cast<std::int64_t>(rank)) {
      throw std::invalid_argument("reduce_sum: axis out of range");
    }
    // Duplicates pass through: the reduce kernel collapses them via its
    // per-dimension flag array, and inference must agree with it.
    out.push_back(ax);
  }
  return out;
}

Shape reduce_result(const Shape& in, const std::vector<std::int64_t>& axes,
                    bool keepdim) {
  const auto norm = normalize_axes(axes, in.size());
  std::vector<bool> reduced(in.size(), false);
  for (const std::int64_t ax : norm) {
    reduced[static_cast<std::size_t>(ax)] = true;
  }
  Shape out;
  for (std::size_t d = 0; d < in.size(); ++d) {
    if (reduced[d]) {
      if (keepdim) out.push_back(1);
    } else {
      out.push_back(in[d]);
    }
  }
  return out;
}

Shape reduce_kept_shape(const Shape& in,
                        const std::vector<std::int64_t>& axes) {
  const auto norm = normalize_axes(axes, in.size());
  Shape kept = in;
  for (const std::int64_t ax : norm) {
    kept[static_cast<std::size_t>(ax)] = 1;
  }
  return kept;
}

Shape matmul_result(const Shape& a, const Shape& b) {
  if (a.size() != 2 || b.size() != 2 || a[1] != b[0]) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_string(a) + " and " + shape_string(b));
  }
  return {a[0], b[1]};
}

Shape conv2d_result(const Shape& input, const Shape& weight,
                    const Shape* bias, const Conv2dSpec& spec,
                    bool depthwise) {
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
  const std::int64_t out_channels = depthwise ? input[1] : weight[0];
  if (bias != nullptr &&
      (bias->size() != 1 || (*bias)[0] != out_channels)) {
    throw std::invalid_argument(std::string(op) +
                                ": bias must be rank 1 of size Cout");
  }
  const std::int64_t oh =
      conv_out_size(input[2], weight[2], spec.stride, spec.padding);
  const std::int64_t ow =
      conv_out_size(input[3], weight[3], spec.stride, spec.padding);
  return {input[0], out_channels, oh, ow};
}

Shape pool2d_result(const Shape& input, const Pool2dSpec& spec) {
  if (input.size() != 4) {
    throw std::invalid_argument("pool2d: input must be rank 4 (NCHW)");
  }
  const std::int64_t oh =
      conv_out_size(input[2], spec.kernel, spec.stride, spec.padding);
  const std::int64_t ow =
      conv_out_size(input[3], spec.kernel, spec.stride, spec.padding);
  return {input[0], input[1], oh, ow};
}

void require_rank2(const Shape& s, const char* op) {
  if (s.size() != 2) {
    throw std::invalid_argument(std::string(op) + ": expected rank 2");
  }
}

}  // namespace bd::ag
