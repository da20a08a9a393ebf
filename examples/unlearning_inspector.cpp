// Unlearning-gradient inspector: a look inside the paper's core signal.
//
// Trains a BadNets-backdoored VGG, then prints the per-layer distribution
// of the filter scores xi (Eq. 3) computed from the unlearning loss
// (Eq. 2). The point the paper makes: a small set of filters carries a
// disproportionate share of the backdoor gradient - those are the ones the
// defense prunes. The inspector shows the top-scored filters, prunes them
// one by one, and tracks how ASR decays (before any fine-tuning).
#include <algorithm>
#include <cstdio>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/factory.h"
#include "nn/layers.h"
#include "util/env.h"

int main() {
  using namespace bd;
  Rng rng(99);

  data::SynthConfig cfg;
  cfg.height = cfg.width = 12;
  cfg.train_per_class = scaled<std::int64_t>(90, 260);
  cfg.test_per_class = 25;
  const data::TrainTest data = data::make_synth_cifar(cfg, rng);

  attack::BadNetsTrigger trigger;
  attack::PoisonConfig poison_cfg;
  const auto poisoned =
      attack::poison_training_set(data.train, trigger, poison_cfg, rng);

  models::ModelSpec spec;
  spec.arch = "vgg";
  spec.num_classes = 10;
  spec.base_width = 8;
  auto model = models::make_model(spec, rng);
  eval::TrainConfig train_cfg;
  train_cfg.epochs = scaled<std::int64_t>(4, 8);
  std::printf("Training backdoored VGG...\n");
  eval::train_classifier(*model, poisoned, train_cfg, rng);

  const auto triggered = attack::make_triggered_test_sets(
      data.test, trigger, 0);
  auto metrics = eval::evaluate_backdoor(*model, data.test,
                                         triggered.asr, triggered.ra);
  std::printf("baseline: ACC=%.1f%% ASR=%.1f%%\n\n", metrics.acc, metrics.asr);

  // Defender data: SPC=10 with synthesized triggered variants.
  const auto spc_set = data.train.sample_per_class(10, rng);
  const auto ctx = defense::make_defense_context(spc_set, trigger, spec, rng);

  // Score all filters with the unlearning-loss gradient.
  auto scores = core::score_filters(*model, ctx.backdoor_train, 32);
  std::sort(scores.begin(), scores.end(),
            [](const auto& a, const auto& b) { return a.xi > b.xi; });

  std::printf("top-10 filters by unlearning-gradient score xi (Eq. 3):\n");
  std::printf("%-6s %-8s %-10s\n", "conv#", "filter", "xi");
  for (std::size_t i = 0; i < std::min<std::size_t>(10, scores.size()); ++i) {
    std::printf("%-6zu %-8lld %-10.5f\n", scores[i].conv_index,
                static_cast<long long>(scores[i].filter), scores[i].xi);
  }
  const double total = [&] {
    double s = 0.0;
    for (const auto& f : scores) s += f.xi;
    return s;
  }();
  double top10 = 0.0;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, scores.size()); ++i) {
    top10 += scores[i].xi;
  }
  std::printf("top-10 filters carry %.1f%% of the total score mass "
              "(%zu filters in the model)\n\n",
              100.0 * top10 / total, scores.size());

  // Prune greedily by xi (re-scored each round) and watch ASR fall.
  std::printf("greedy pruning (no fine-tuning yet):\n");
  std::printf("%-8s %-8s %-8s\n", "pruned", "ACC", "ASR");
  auto convs = model->modules_of_type<nn::Conv2d>();
  for (int round = 1; round <= scaled<int>(8, 20); ++round) {
    const auto round_scores =
        core::score_filters(*model, ctx.backdoor_train, 32);
    const auto best = core::best_filter_to_prune(round_scores);
    if (!best) break;
    convs[best->conv_index]->prune_filter(best->filter);
    metrics = eval::evaluate_backdoor(*model, data.test,
                                      triggered.asr, triggered.ra);
    std::printf("%-8d %-8.1f %-8.1f\n", round, metrics.acc, metrics.asr);
  }
  std::printf("\n(The full defense additionally restores the "
              "best-unlearning-loss state and fine-tunes; see quickstart.)\n");
  return 0;
}
