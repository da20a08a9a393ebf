// Defense comparison: run every implemented defense against one attack and
// print a side-by-side table. Usage:
//
//   defense_comparison [attack] [spc] [arch] [defense]
//   attack:  badnet | blended | lf | bpp      (default badnet)
//   spc:     samples per class for the defender (default 10)
//   arch:    preactresnet | vgg | efficientnet | mobilenet
//   defense: restrict to one defense (default: all)
//
// A table bench of its own: honours BDPROTO_MODE / BDPROTO_TRIALS /
// BDPROTO_SEED and the BDPROTO_JOURNAL / BDPROTO_RESUME journal, whose
// entries carry each trial's defense wall-clock in `seconds`.
#include <cstdio>
#include <string>

#include "eval/table_bench.h"
#include "util/env.h"

int main(int argc, char** argv) {
  using namespace bd;
  const std::string attack = argc > 1 ? argv[1] : "badnet";
  const std::string spc_text = argc > 2 ? argv[2] : "10";
  const std::string arch = argc > 3 ? argv[3] : "preactresnet";
  const std::string only = argc > 4 ? argv[4] : "";

  eval::TableSpec spec;
  for (const auto& name : eval::known_defenses()) {
    if (only.empty() || name == only) spec.defenses.emplace_back(name);
  }
  const auto spc = parse_whole<std::int64_t>(spc_text);
  if (argc > 5 || !spc || *spc < 1 || spec.defenses.empty()) {
    std::fprintf(stderr,
                 "usage: defense_comparison [attack] [spc] [arch] [defense]\n"
                 "  spc: a whole number >= 1; defense: one of");
    for (const auto& name : eval::known_defenses()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  spec.title = "Defense comparison: " + attack + " on " + arch;
  spec.dataset = "cifar";
  spec.arch = arch;
  spec.attacks = {attack};
  eval::ExperimentScale scale = eval::default_scale(spec.dataset);
  scale.spc_settings = {*spc};
  spec.scale = scale;
  eval::run_table(spec);
  return 0;
}
