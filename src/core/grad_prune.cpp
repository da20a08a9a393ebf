#include "core/grad_prune.h"

#include <cmath>
#include <limits>
#include <optional>

#include "autograd/ops.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "obs/obs.h"
#include "robust/cancel.h"
#include "robust/fault_injector.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace bd::core {

std::vector<FilterScore> score_filters(models::Classifier& model,
                                       const data::ImageDataset& backdoor_true,
                                       std::int64_t batch_size) {
  // Accumulate the gradient of the SUM cross-entropy (Eq. 2) over the whole
  // unlearning set. Each batch contributes mean-CE * batch_size.
  BD_OBS_SPAN_ARG("gradprune.score",
                  static_cast<std::int64_t>(backdoor_true.size()));
  model.set_training(false);  // gradients through frozen BN statistics
  model.zero_grad();

  Rng dummy(0);
  data::DataLoader loader(backdoor_true, batch_size, dummy, /*shuffle=*/false);
  data::Batch batch;
  while (loader.next(batch)) {
    const ag::Var logits = model.forward(ag::Var(batch.images));
    const ag::Var mean_ce = ag::cross_entropy(logits, batch.labels);
    ag::Var loss = ag::mul_scalar(mean_ce, static_cast<float>(batch.size()));
    loss.backward();  // grads accumulate across batches
  }

  std::vector<FilterScore> scores;
  const auto convs = model.modules_of_type<nn::Conv2d>();
  for (std::size_t ci = 0; ci < convs.size(); ++ci) {
    nn::Conv2d* conv = convs[ci];
    if (!conv->weight().has_grad()) continue;
    const Tensor& gw = conv->weight().grad();
    const std::int64_t filter_size =
        conv->in_channels() * conv->kernel() * conv->kernel();
    const bool has_bias = conv->has_bias() && conv->bias().has_grad();

    for (std::int64_t f = 0; f < conv->out_channels(); ++f) {
      if (conv->is_filter_pruned(f)) continue;
      double l1 = 0.0;
      const float* g = gw.data() + f * filter_size;
      for (std::int64_t j = 0; j < filter_size; ++j) l1 += std::fabs(g[j]);
      std::int64_t count = filter_size;
      if (has_bias) {
        l1 += std::fabs(conv->bias().grad()[f]);
        ++count;
      }
      scores.push_back(
          {ci, f, l1 / static_cast<double>(count)});  // Eq. 3
    }
  }
  BD_OBS_COUNT("gradprune.filters_scored", scores.size());
  model.zero_grad();
  if (robust::FaultInjector::instance().fire(robust::FaultKind::kNanGrad)) {
    // Injected gradient blow-up: the whole scoring pass is garbage, exactly
    // as if the unlearning gradients had overflowed.
    for (auto& s : scores) s.xi = std::numeric_limits<double>::quiet_NaN();
  }
  return scores;
}

namespace {

/// A scoring pass is usable only when every xi is finite; a single NaN/Inf
/// would make the arg-max rank filters on garbage.
bool scores_finite(const std::vector<FilterScore>& scores) {
  for (const auto& s : scores) {
    if (!std::isfinite(s.xi)) return false;
  }
  return true;
}

}  // namespace

std::optional<FilterScore> best_filter_to_prune(
    const std::vector<FilterScore>& scores) {
  if (scores.empty()) return std::nullopt;
  const FilterScore* best = &scores.front();
  for (const auto& s : scores) {
    if (s.xi > best->xi) best = &s;
  }
  return *best;
}

defense::DefenseResult GradPruneDefense::apply(
    models::Classifier& model, const defense::DefenseContext& context) {
  BD_OBS_SPAN("defense.gradprune");
  Stopwatch watch;
  defense::DefenseResult out;
  out.defense_name = name();

  auto convs = model.modules_of_type<nn::Conv2d>();

  if (config_.prune) {
    const double initial_acc = eval::accuracy(model, context.clean_val);
    const double acc_floor = initial_acc - config_.alpha;

    double best_unlearn_loss =
        eval::dataset_loss(model, context.backdoor_val);
    auto best_state = model.state_dict();
    std::int64_t best_round = 0;  // number of prunes in the best state
    std::vector<std::pair<std::size_t, std::int64_t>> prune_history;
    std::int64_t rounds_without_improvement = 0;

    for (std::int64_t round = 0; round < config_.max_prune_rounds; ++round) {
      robust::poll_cancellation("gradprune.round");
      BD_OBS_SPAN_ARG("gradprune.round", round);
      const auto scores =
          score_filters(model, context.backdoor_train, config_.batch_size);
      if (!scores_finite(scores)) {
        // Non-finite unlearning gradients: skip the round instead of
        // pruning on garbage. Counts toward patience so a persistently
        // diverged model still terminates.
        ++out.recoveries;
        BD_LOG(Warn) << "gradprune round " << (round + 1)
                     << ": non-finite filter scores, skipping round";
        if (++rounds_without_improvement >= config_.prune_patience) {
          BD_LOG(Warn) << "gradprune: patience exhausted on non-finite "
                          "rounds, stopping";
          break;
        }
        continue;
      }
      const auto target = best_filter_to_prune(scores);
      if (!target) {
        BD_LOG(Warn) << "gradprune: no filters left to prune";
        break;
      }
      {
        BD_OBS_SPAN_ARG("gradprune.prune", target->filter);
        convs[target->conv_index]->prune_filter(target->filter);
      }
      prune_history.emplace_back(target->conv_index, target->filter);
      BD_OBS_COUNT("gradprune.filters_pruned", 1);

      double val_acc, unlearn_loss;
      {
        BD_OBS_SPAN("gradprune.eval");
        val_acc = eval::accuracy(model, context.clean_val);
        unlearn_loss = eval::dataset_loss(model, context.backdoor_val);
      }
      BD_OBS_GAUGE("gradprune.val_acc", val_acc);
      BD_OBS_GAUGE("gradprune.unlearn_loss", unlearn_loss);
      BD_OBS_GAUGE("gradprune.pruned_xi", target->xi);
      BD_LOG(Debug) << "gradprune round " << (round + 1) << " pruned conv#"
                    << target->conv_index << " filter " << target->filter
                    << " xi=" << target->xi << " val_acc=" << val_acc
                    << " unlearn_loss=" << unlearn_loss;

      if (unlearn_loss < best_unlearn_loss - 1e-6) {
        best_unlearn_loss = unlearn_loss;
        best_state = model.state_dict();
        best_round = static_cast<std::int64_t>(prune_history.size());
        rounds_without_improvement = 0;
      } else {
        ++rounds_without_improvement;
      }
      BD_OBS_GAUGE("gradprune.best_unlearn_loss", best_unlearn_loss);
      BD_OBS_GAUGE("gradprune.rounds_without_improvement",
                   rounds_without_improvement);

      if (val_acc < acc_floor) {
        BD_LOG(Debug) << "gradprune: accuracy floor reached";
        break;
      }
      if (rounds_without_improvement >= config_.prune_patience) {
        BD_LOG(Debug) << "gradprune: unlearning-loss patience exhausted";
        break;
      }
    }

    // Restore the best-by-unlearning-loss state: un-flag the filters pruned
    // after that point, then load the weights.
    for (std::size_t k = static_cast<std::size_t>(best_round);
         k < prune_history.size(); ++k) {
      convs[prune_history[k].first]->unprune_filter(prune_history[k].second);
    }
    model.load_state_dict(best_state);
    out.pruned_units = best_round;
  }

  if (config_.finetune) {
    BD_OBS_SPAN("gradprune.finetune");
    // Fine-tune on ALL defender data: clean + correctly-relabelled backdoor
    // samples (Sec. IV-C), early-stopped on the combined validation loss.
    const auto ft_train =
        eval::concat(context.clean_train, context.backdoor_train);
    const auto ft_val = eval::concat(context.clean_val, context.backdoor_val);

    eval::TrainConfig ft;
    ft.epochs = config_.finetune_max_epochs;
    ft.patience = config_.finetune_patience;
    ft.batch_size = config_.batch_size;
    ft.lr = config_.finetune_lr;
    ft.weight_decay = 0.0f;
    ft.post_step = [&convs] {
      for (auto* conv : convs) conv->enforce_filter_masks();
    };
    const auto result = eval::train_classifier(model, ft_train, ft,
                                               context.rng_ref(), &ft_val);
    out.finetune_epochs = result.epochs_run;
    out.recoveries += result.guard.recoveries;
    // The restored best-val state predates some post_step applications;
    // re-assert the masks on the final weights.
    for (auto* conv : convs) conv->enforce_filter_masks();
  }

  out.seconds = watch.seconds();
  return out;
}

}  // namespace bd::core
