#include "defense/clp.h"

#include <cmath>

#include "obs/obs.h"
#include "robust/cancel.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace bd::defense {

float spectral_norm(const Tensor& matrix, std::int64_t iterations) {
  const std::int64_t rows = matrix.size(0), cols = matrix.size(1);
  // Deterministic start vector keeps CLP fully reproducible (and data-free).
  Tensor v({cols, 1});
  for (std::int64_t i = 0; i < cols; ++i) {
    v[i] = 1.0f / std::sqrt(static_cast<float>(cols));
  }
  float sigma = 0.0f;
  for (std::int64_t it = 0; it < iterations; ++it) {
    Tensor u = matmul(matrix, v);  // (rows,1)
    const float un = l2_norm(u);
    if (un == 0.0f) return 0.0f;
    for (std::int64_t i = 0; i < rows; ++i) u[i] /= un;
    v = matmul(matrix, u, /*trans_a=*/true);  // (cols,1)
    sigma = l2_norm(v);
    if (sigma == 0.0f) return 0.0f;
    for (std::int64_t i = 0; i < cols; ++i) v[i] /= sigma;
  }
  return sigma;
}

std::vector<float> channel_lipschitz_bounds(nn::Conv2d& conv,
                                            const nn::BatchNorm2d* bn,
                                            std::int64_t power_iterations) {
  const Tensor& w = conv.weight().value();  // (out, in, k, k)
  const std::int64_t out_ch = w.size(0), in_ch = w.size(1);
  const std::int64_t kk = w.size(2) * w.size(3);

  std::vector<float> bounds(static_cast<std::size_t>(out_ch));
  for (std::int64_t c = 0; c < out_ch; ++c) {
    Tensor filter({in_ch, kk});
    std::copy(w.data() + c * in_ch * kk, w.data() + (c + 1) * in_ch * kk,
              filter.data());
    float sigma = spectral_norm(filter, power_iterations);
    if (bn != nullptr) {
      const auto* bn_mut = const_cast<nn::BatchNorm2d*>(bn);
      const float gamma =
          const_cast<nn::BatchNorm2d*>(bn_mut)->gamma().value()[c];
      const float var = const_cast<nn::BatchNorm2d*>(bn_mut)->running_var()[c];
      sigma *= std::fabs(gamma) / std::sqrt(var + 1e-5f);
    }
    bounds[static_cast<std::size_t>(c)] = sigma;
  }
  return bounds;
}

DefenseResult ClpDefense::apply(models::Classifier& model,
                                const DefenseContext& /*context*/) {
  BD_OBS_SPAN("defense.clp");
  Stopwatch watch;
  DefenseResult out;
  out.defense_name = name();

  // Ordered pre-order module list to pair each conv with the next matching
  // BatchNorm (the layer that scales its output).
  std::vector<nn::Module*> ordered;
  model.visit([&ordered](nn::Module& m) { ordered.push_back(&m); });

  for (std::size_t i = 0; i < ordered.size(); ++i) {
    auto* conv = dynamic_cast<nn::Conv2d*>(ordered[i]);
    if (conv == nullptr) continue;
    robust::poll_cancellation("clp.conv");

    nn::BatchNorm2d* bn = nullptr;
    for (std::size_t j = i + 1; j < ordered.size(); ++j) {
      if (auto* candidate = dynamic_cast<nn::BatchNorm2d*>(ordered[j])) {
        if (candidate->channels() == conv->out_channels()) {
          bn = candidate;
        }
        break;  // first BN after the conv decides (match or not)
      }
    }

    std::vector<float> bounds;
    {
      BD_OBS_SPAN_ARG("clp.lipschitz", conv->out_channels());
      bounds = channel_lipschitz_bounds(*conv, bn, config_.power_iterations);
    }
    RunningStat stat;
    for (const float b : bounds) stat.add(b);
    const double threshold = stat.mean() + config_.u * stat.stddev();
    if (stat.stddev() == 0.0) continue;

    for (std::int64_t c = 0; c < conv->out_channels(); ++c) {
      if (bounds[static_cast<std::size_t>(c)] > threshold) {
        conv->prune_filter(c);
        if (bn != nullptr) bn->suppress_channel(c);
        ++out.pruned_units;
      }
    }
  }

  BD_LOG(Debug) << "CLP pruned " << out.pruned_units << " channels";
  out.seconds = watch.seconds();
  return out;
}

}  // namespace bd::defense
