#include "attack/trigger.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace bd::attack {

namespace {
constexpr float kPi = std::numbers::pi_v<float>;

float clamp01(float x) { return std::min(1.0f, std::max(0.0f, x)); }

void check_image(const Tensor& image) {
  if (image.dim() != 3) {
    throw std::invalid_argument("TriggerApplier: image must be (C,H,W)");
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// BadNets
// ---------------------------------------------------------------------------

BadNetsTrigger::BadNetsTrigger(double patch_fraction)
    : patch_fraction_(patch_fraction) {
  if (patch_fraction <= 0.0 || patch_fraction > 0.5) {
    throw std::invalid_argument("BadNetsTrigger: patch_fraction in (0, 0.5]");
  }
}

Tensor BadNetsTrigger::apply(const Tensor& image) const {
  check_image(image);
  Tensor out = image.clone();
  const std::int64_t c = image.size(0), h = image.size(1), w = image.size(2);
  const std::int64_t patch = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(static_cast<double>(std::min(h, w)) *
                                   patch_fraction_));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = h - patch; y < h; ++y) {
      for (std::int64_t x = w - patch; x < w; ++x) {
        // 2x2 checkerboard of white/black, the classic BadNets pattern.
        const bool white = ((x + y) % 2) == 0;
        out.data()[(ch * h + y) * w + x] = white ? 1.0f : 0.0f;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Blended
// ---------------------------------------------------------------------------

BlendedTrigger::BlendedTrigger(const Shape& image_shape, float alpha,
                               std::uint64_t pattern_seed)
    : alpha_(alpha) {
  if (image_shape.size() != 3) {
    throw std::invalid_argument("BlendedTrigger: shape must be (C,H,W)");
  }
  if (alpha <= 0.0f || alpha >= 1.0f) {
    throw std::invalid_argument("BlendedTrigger: alpha in (0,1)");
  }
  // Fixed pseudo-random pattern, the stand-in for the paper's blend image.
  pattern_ = Tensor(image_shape);
  Rng rng(pattern_seed);
  for (std::int64_t i = 0; i < pattern_.numel(); ++i) {
    pattern_[i] = static_cast<float>(rng.uniform());
  }
}

Tensor BlendedTrigger::apply(const Tensor& image) const {
  check_image(image);
  if (image.shape() != pattern_.shape()) {
    throw std::invalid_argument("BlendedTrigger: image shape mismatch");
  }
  Tensor out(image.shape());
  for (std::int64_t i = 0; i < image.numel(); ++i) {
    out[i] = clamp01((1.0f - alpha_) * image[i] + alpha_ * pattern_[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Low-frequency
// ---------------------------------------------------------------------------

LowFrequencyTrigger::LowFrequencyTrigger(float amplitude,
                                         std::int64_t frequency)
    : amplitude_(amplitude), frequency_(frequency) {
  if (amplitude <= 0.0f || amplitude > 0.5f) {
    throw std::invalid_argument("LowFrequencyTrigger: amplitude in (0, 0.5]");
  }
  if (frequency <= 0) {
    throw std::invalid_argument("LowFrequencyTrigger: frequency must be > 0");
  }
}

Tensor LowFrequencyTrigger::apply(const Tensor& image) const {
  check_image(image);
  Tensor out(image.shape());
  const std::int64_t c = image.size(0), h = image.size(1), w = image.size(2);
  const float f = static_cast<float>(frequency_);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    // Slight per-channel phase offset keeps the perturbation chromatic.
    const float phase = 0.7f * static_cast<float>(ch);
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        const float u = static_cast<float>(x) / static_cast<float>(w);
        const float v = static_cast<float>(y) / static_cast<float>(h);
        const float wave = std::sin(2.0f * kPi * f * u + phase) *
                           std::cos(2.0f * kPi * f * v + phase);
        const std::int64_t idx = (ch * h + y) * w + x;
        out[idx] = clamp01(image[idx] + amplitude_ * wave);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// BPP
// ---------------------------------------------------------------------------

BppTrigger::BppTrigger(std::int64_t levels) : levels_(levels) {
  if (levels < 2 || levels > 128) {
    throw std::invalid_argument("BppTrigger: levels in [2, 128]");
  }
}

Tensor BppTrigger::apply(const Tensor& image) const {
  check_image(image);
  Tensor out(image.shape());
  const std::int64_t c = image.size(0), h = image.size(1), w = image.size(2);
  const float steps = static_cast<float>(levels_ - 1);
  // 2x2 ordered-dither (Bayer) matrix, scaled to one quantization step.
  const float bayer[2][2] = {{-0.25f, 0.25f}, {0.5f, 0.0f}};
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        const std::int64_t idx = (ch * h + y) * w + x;
        const float dithered =
            image[idx] + bayer[y % 2][x % 2] / steps;
        out[idx] = clamp01(std::round(dithered * steps) / steps);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sample-specific (dynamic)
// ---------------------------------------------------------------------------

SampleSpecificTrigger::SampleSpecificTrigger(double patch_fraction,
                                             std::uint64_t key)
    : patch_fraction_(patch_fraction), key_(key) {
  if (patch_fraction <= 0.0 || patch_fraction > 0.5) {
    throw std::invalid_argument(
        "SampleSpecificTrigger: patch_fraction in (0, 0.5]");
  }
}

SampleSpecificTrigger::Placement SampleSpecificTrigger::placement_for(
    const Tensor& image) const {
  check_image(image);
  const std::int64_t c = image.size(0), h = image.size(1), w = image.size(2);
  const std::int64_t patch = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(static_cast<double>(std::min(h, w)) *
                                   patch_fraction_));

  // Perceptual hash: quantized mean luminance of the four image quadrants.
  // Coarse quantization keeps the hash stable under the trigger itself and
  // mild noise, so the mapping is a learnable function of image content.
  std::uint64_t state = key_;
  for (std::int64_t qy = 0; qy < 2; ++qy) {
    for (std::int64_t qx = 0; qx < 2; ++qx) {
      double mean = 0.0;
      std::int64_t count = 0;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        for (std::int64_t y = qy * h / 2; y < (qy + 1) * h / 2; ++y) {
          for (std::int64_t x = qx * w / 2; x < (qx + 1) * w / 2; ++x) {
            mean += image[(ch * h + y) * w + x];
            ++count;
          }
        }
      }
      const auto bucket =
          static_cast<std::uint64_t>(mean / static_cast<double>(count) * 16.0);
      state = state * 0x100000001B3ULL + bucket;
    }
  }
  const std::uint64_t hash = splitmix64(state);

  // Four corner anchors plus polarity, all content-dependent.
  const bool bottom = (hash & 1) != 0;
  const bool right = (hash & 2) != 0;
  Placement p;
  p.y = bottom ? h - patch : 0;
  p.x = right ? w - patch : 0;
  p.inverted = (hash & 4) != 0;
  return p;
}

Tensor SampleSpecificTrigger::apply(const Tensor& image) const {
  const Placement place = placement_for(image);
  const std::int64_t c = image.size(0), h = image.size(1), w = image.size(2);
  const std::int64_t patch = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(static_cast<double>(std::min(h, w)) *
                                   patch_fraction_));
  Tensor out = image.clone();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = place.y; y < place.y + patch; ++y) {
      for (std::int64_t x = place.x; x < place.x + patch; ++x) {
        const bool white = (((x + y) % 2) == 0) != place.inverted;
        out.data()[(ch * h + y) * w + x] = white ? 1.0f : 0.0f;
      }
    }
  }
  return out;
}

std::unique_ptr<TriggerApplier> make_trigger(const std::string& attack_name,
                                             const Shape& image_shape) {
  if (attack_name == "badnet") {
    return std::make_unique<BadNetsTrigger>();
  }
  if (attack_name == "blended") {
    return std::make_unique<BlendedTrigger>(image_shape);
  }
  if (attack_name == "lf") {
    return std::make_unique<LowFrequencyTrigger>();
  }
  if (attack_name == "bpp") {
    return std::make_unique<BppTrigger>();
  }
  if (attack_name == "dynamic") {
    return std::make_unique<SampleSpecificTrigger>();
  }
  throw std::invalid_argument("make_trigger: unknown attack '" + attack_name +
                              "'");
}

std::vector<std::string> known_attacks() {
  return {"badnet", "blended", "lf", "bpp", "dynamic"};
}

}  // namespace bd::attack
