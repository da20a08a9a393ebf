// Ablation A: pruning versus gradient descent.
//
// Sec. IV-A argues that the parameters with large unlearning-loss gradient
// are better PRUNED than adjusted by gradient descent on limited data.
// This bench compares, on Table I's backdoored models:
//   descend-only : fine-tune on clean + relabelled backdoor data (the
//                  gradient-descent alternative; no pruning)
//   prune-only   : gradient-based pruning without the recovery fine-tune
//   prune+ft     : the full proposed approach
#include "eval/table_bench.h"

namespace {

/// Grad-Prune at the table's budgets with either stage switched off.
bd::eval::TableDefense variant(const char* label, bool prune, bool finetune) {
  return {label, [=](const bd::eval::ExperimentScale& scale) {
            auto config = bd::eval::gradprune_config(scale);
            config.prune = prune;
            config.finetune = finetune;
            return std::make_unique<bd::core::GradPruneDefense>(config);
          }};
}

}  // namespace

int main() {
  bd::eval::TableSpec spec;
  spec.title = "Ablation A: prune vs gradient-descend (unlearning)";
  spec.dataset = "cifar";
  spec.arch = "preactresnet";
  spec.attacks = {"badnet", "blended"};
  spec.defenses = {variant("descend-only", false, true),
                   variant("prune-only", true, false),
                   variant("prune+ft (ours)", true, true)};
  bd::eval::run_table(spec);
  return 0;
}
