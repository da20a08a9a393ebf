#include "defense/anp.h"

#include <cmath>
#include <algorithm>

#include "autograd/ops.h"
#include "eval/metrics.h"
#include "nn/layers.h"
#include "obs/obs.h"
#include "optim/optim.h"
#include "robust/cancel.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace bd::defense {

void anp_mask_gradients(models::Classifier& model, const data::Batch& batch,
                        const AnpConfig& config, std::vector<ag::Var>& masks,
                        std::vector<ag::Var>& deltas) {
  std::vector<ag::Var*> delta_ptrs;
  for (auto& d : deltas) delta_ptrs.push_back(&d);

  // Inner step: adversarial sign-ascent on delta within [-eps, eps],
  // from the natural loss (delta = 0).
  for (auto& d : deltas) {
    d.mutable_value().fill(0.0f);
    d.zero_grad();
  }
  for (auto& m : masks) m.zero_grad();
  ag::Var natural_loss = ag::cross_entropy(
      model.forward(ag::Var(batch.images)), batch.labels);
  natural_loss.backward();
  for (auto& d : deltas) {
    if (!d.has_grad()) continue;
    Tensor& v = d.mutable_value();
    const Tensor& g = d.grad();
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      const float step =
          g[i] > 0 ? config.eps_step : (g[i] < 0 ? -config.eps_step : 0.0f);
      v[i] = std::clamp(v[i] + step, -config.eps, config.eps);
    }
  }

  // Outer step: the masks' gradient of the ANP trade-off objective. The
  // natural loss is the inner step's graph: its nodes' values were fixed
  // at delta = 0 when they were built, and no backward step reads a
  // delta's own value, so the ascent above left that graph intact. The
  // deltas are frozen through it, so neither graph computes their
  // gradients, which nothing reads.
  for (auto& m : masks) m.zero_grad();
  for (auto& d : deltas) d.zero_grad();
  const nn::FrozenParameters frozen_deltas(delta_ptrs);
  ag::Var perturbed_loss = ag::cross_entropy(
      model.forward(ag::Var(batch.images)), batch.labels);
  ag::Var loss =
      ag::add(ag::mul_scalar(natural_loss, config.trade_off),
              ag::mul_scalar(perturbed_loss, 1.0f - config.trade_off));
  loss.backward();
}

DefenseResult AnpDefense::apply(models::Classifier& model,
                                const DefenseContext& context) {
  BD_OBS_SPAN("defense.anp");
  Stopwatch watch;
  Rng& rng = context.rng_ref();
  DefenseResult out;
  out.defense_name = name();

  auto bns = model.modules_of_type<nn::BatchNorm2d>();
  if (bns.empty()) {
    BD_LOG(Warn) << "ANP: model has no BatchNorm layers; nothing to prune";
    out.seconds = watch.seconds();
    return out;
  }

  // Install masks (init 1) and perturbations (init 0) on every BN.
  std::vector<ag::Var> masks, deltas;
  masks.reserve(bns.size());
  deltas.reserve(bns.size());
  for (auto* bn : bns) {
    masks.emplace_back(Tensor::ones({bn->channels()}), /*requires_grad=*/true);
    deltas.emplace_back(Tensor::zeros({bn->channels()}),
                        /*requires_grad=*/true);
    bn->set_channel_mask(masks.back());
    bn->set_gamma_perturbation(deltas.back());
  }

  std::vector<ag::Var*> mask_ptrs;
  for (auto& m : masks) mask_ptrs.push_back(&m);
  optim::Sgd mask_opt(mask_ptrs, {config_.mask_lr, 0.9f, 0.0f});

  model.set_training(false);  // use running BN stats; masks still apply
  data::DataLoader loader(context.clean_train, config_.batch_size, rng);
  data::Batch batch;

  // Only the masks and perturbations are learned. With the weights frozen,
  // backward computes no weight gradient and skips the stem conv, whose
  // input is the image batch.
  const nn::FrozenParameters frozen(model);
  for (std::int64_t it = 0; it < config_.iterations; ++it) {
    robust::poll_cancellation("anp.mask_iter");
    BD_OBS_SPAN_ARG("anp.mask_iter", it);
    if (!loader.next(batch)) {
      loader.reset();
      loader.next(batch);
    }
    anp_mask_gradients(model, batch, config_, masks, deltas);
    mask_opt.step();

    // Project masks back to [0, 1].
    for (auto& m : masks) {
      Tensor& v = m.mutable_value();
      for (std::int64_t i = 0; i < v.numel(); ++i) {
        v[i] = std::clamp(v[i], 0.0f, 1.0f);
      }
    }
  }

  // Prune: suppress sub-threshold channels in ascending mask order (most
  // backdoor-suspect first), guarded by a clean-accuracy floor.
  for (std::size_t b = 0; b < bns.size(); ++b) {
    bns[b]->clear_channel_mask();
    bns[b]->clear_gamma_perturbation();
  }
  struct Candidate {
    std::size_t bn;
    std::int64_t channel;
    float mask;
  };
  std::vector<Candidate> candidates;
  for (std::size_t b = 0; b < bns.size(); ++b) {
    const Tensor& m = masks[b].value();
    for (std::int64_t c = 0; c < m.numel(); ++c) {
      if (m[c] < config_.prune_threshold) {
        candidates.push_back({b, c, m[c]});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.mask < b.mask;
            });

  BD_OBS_SPAN_ARG("anp.prune",
                  static_cast<std::int64_t>(candidates.size()));
  const double initial_acc = eval::accuracy(model, context.clean_val);
  const double floor = initial_acc - config_.max_accuracy_drop;
  for (const auto& cand : candidates) {
    const float saved_gamma = bns[cand.bn]->gamma().value()[cand.channel];
    const float saved_beta = bns[cand.bn]->beta().value()[cand.channel];
    bns[cand.bn]->suppress_channel(cand.channel);
    if (eval::accuracy(model, context.clean_val) < floor) {
      bns[cand.bn]->gamma().mutable_value()[cand.channel] = saved_gamma;
      bns[cand.bn]->beta().mutable_value()[cand.channel] = saved_beta;
      break;
    }
    ++out.pruned_units;
  }

  BD_LOG(Debug) << "ANP suppressed " << out.pruned_units << " BN channels";
  out.seconds = watch.seconds();
  return out;
}

}  // namespace bd::defense
