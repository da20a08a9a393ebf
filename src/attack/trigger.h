// Backdoor trigger appliers (Sec. V-A of the paper).
//
// Four attacks spanning the trigger characteristics BackdoorBench groups:
//   BadNets  - localized patch trigger (Gu et al. 2019)
//   Blended  - global alpha-blended pattern (Chen et al. 2017)
//   LF       - additive low-frequency perturbation (Zeng et al. 2021)
//   BPP      - colour-depth quantization + dithering (Wang et al. 2022)
//
// Each applier is a pure function image -> triggered image. The defender's
// assumed trigger-synthesis capability (Sec. III-C) is modelled by handing
// the defense the same applier the attacker used.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace bd::attack {

class TriggerApplier {
 public:
  virtual ~TriggerApplier() = default;

  /// Returns a triggered copy of `image` ((C,H,W), values in [0,1]).
  virtual Tensor apply(const Tensor& image) const = 0;

  virtual std::string name() const = 0;
};

/// BadNets: solid checkerboard patch in the bottom-right corner.
class BadNetsTrigger : public TriggerApplier {
 public:
  /// `patch_fraction` of the image side (default ~20%), at least 2 pixels.
  explicit BadNetsTrigger(double patch_fraction = 0.25);
  Tensor apply(const Tensor& image) const override;
  std::string name() const override { return "badnet"; }

 private:
  double patch_fraction_;
};

/// Blended: fixed pseudo-random pattern blended over the whole image.
class BlendedTrigger : public TriggerApplier {
 public:
  BlendedTrigger(const Shape& image_shape, float alpha = 0.3f,
                 std::uint64_t pattern_seed = 42);
  Tensor apply(const Tensor& image) const override;
  std::string name() const override { return "blended"; }
  float alpha() const { return alpha_; }

 private:
  Tensor pattern_;
  float alpha_;
};

/// LF: smooth low-frequency additive perturbation (bounded amplitude).
class LowFrequencyTrigger : public TriggerApplier {
 public:
  explicit LowFrequencyTrigger(float amplitude = 0.3f,
                               std::int64_t frequency = 1);
  Tensor apply(const Tensor& image) const override;
  std::string name() const override { return "lf"; }

 private:
  float amplitude_;
  std::int64_t frequency_;
};

/// BPP: colour-depth squeeze (quantization to `levels` per channel) with
/// ordered dithering; the quantized appearance is the trigger.
class BppTrigger : public TriggerApplier {
 public:
  explicit BppTrigger(std::int64_t levels = 4);
  Tensor apply(const Tensor& image) const override;
  std::string name() const override { return "bpp"; }

 private:
  std::int64_t levels_;
};

/// Sample-specific (dynamic) trigger, ISSBA-style in spirit: the patch
/// location and polarity are a deterministic function of the IMAGE CONTENT
/// (a perceptual hash of its coarse luminance), so every image carries a
/// different-looking trigger. The paper's threat model (Sec. III-B)
/// explicitly covers such input-dependent triggers; this applier lets the
/// defense be evaluated against one. Synthesis remains possible because
/// the function is deterministic per image.
class SampleSpecificTrigger : public TriggerApplier {
 public:
  explicit SampleSpecificTrigger(double patch_fraction = 0.25,
                                 std::uint64_t key = 0xD1DAC71C);
  Tensor apply(const Tensor& image) const override;
  std::string name() const override { return "dynamic"; }

  /// The (y, x, polarity) placement this image's content hashes to
  /// (exposed for tests).
  struct Placement {
    std::int64_t y, x;
    bool inverted;
  };
  Placement placement_for(const Tensor& image) const;

 private:
  double patch_fraction_;
  std::uint64_t key_;
};

/// Factory from the canonical attack names used by the bench harness:
/// badnet | blended | lf | bpp | dynamic. Throws std::invalid_argument for a
/// name known_attacks() does not list.
std::unique_ptr<TriggerApplier> make_trigger(const std::string& attack_name,
                                             const Shape& image_shape);

/// Every name make_trigger accepts, in the paper's table order.
std::vector<std::string> known_attacks();

}  // namespace bd::attack
