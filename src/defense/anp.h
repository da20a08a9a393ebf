// ANP baseline (Wu & Wang 2021): Adversarial Neuron Pruning.
//
// Backdoor neurons are the ones most sensitive to adversarial weight
// perturbation. ANP learns a per-channel mask m on every BatchNorm scale by
// solving  min_m  alpha * L(m) + (1-alpha) * max_|delta|<=eps L(m, delta)
// on the defender's clean data, then prunes channels whose mask falls
// below a threshold.
#pragma once

#include "defense/defense.h"

namespace bd::defense {

struct AnpConfig {
  std::int64_t iterations = 60;    // outer mask updates
  std::int64_t batch_size = 32;
  float mask_lr = 0.2f;
  float eps = 0.4f;        // perturbation budget on gamma (relative)
  float eps_step = 0.4f;   // inner sign-ascent step (one jump to the eps boundary)
  float trade_off = 0.5f;  // alpha: weight of the unperturbed loss
  float prune_threshold = 0.25f;
  /// Safety floor: stop pruning once clean validation accuracy has dropped
  /// this much below its initial value (channels are pruned in ascending
  /// mask order, most backdoor-suspect first).
  double max_accuracy_drop = 0.10;
};

/// One iteration of ANP's mask search on `batch`, up to the mask step; the
/// model's parameters are frozen and masks[i] and deltas[i] are set on its
/// i-th BatchNorm. The inner step sets each delta by sign ascent on the
/// natural loss; the outer backward of the trade-off loss then runs with
/// the deltas frozen, and leaves a gradient on every mask and none on any
/// delta.
void anp_mask_gradients(models::Classifier& model, const data::Batch& batch,
                        const AnpConfig& config, std::vector<ag::Var>& masks,
                        std::vector<ag::Var>& deltas);

class AnpDefense : public Defense {
 public:
  AnpDefense() = default;
  explicit AnpDefense(AnpConfig config) : config_(config) {}

  DefenseResult apply(models::Classifier& model,
                      const DefenseContext& context) override;
  std::string name() const override { return "anp"; }

 private:
  AnpConfig config_;
};

}  // namespace bd::defense
