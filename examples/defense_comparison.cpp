// Defense comparison: run every implemented defense against one attack and
// print a side-by-side table. Usage:
//
//   defense_comparison [attack] [spc] [arch] [defense]
//   attack:  badnet | blended | lf | bpp      (default badnet)
//   spc:     samples per class for the defender (default 10)
//   arch:    preactresnet | vgg | efficientnet | mobilenet
//   defense: restrict to one defense (default: all)
//
// Honours BDPROTO_MODE / BDPROTO_TRIALS / BDPROTO_SEED like the benches.
#include <cstdio>
#include <string>

#include "eval/runner.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bd;
  const std::string attack = argc > 1 ? argv[1] : "badnet";
  const std::int64_t spc = argc > 2 ? std::stoll(argv[2]) : 10;
  const std::string arch = argc > 3 ? argv[3] : "preactresnet";
  const std::string only = argc > 4 ? argv[4] : "";

  const eval::ExperimentScale scale = eval::default_scale("cifar");
  Rng seeder(base_seed() ^ std::hash<std::string>{}(attack + arch));
  const auto bd_model = eval::prepare_backdoored_model(
      "cifar", arch, attack, scale, seeder.next_u64());

  std::printf("Attack: %s | Architecture: %s | SPC: %lld | trials: %d\n\n",
              attack.c_str(), arch.c_str(), static_cast<long long>(spc),
              scale.trials);

  TextTable table({"Defense", "ACC", "ASR", "RA", "sec"});
  char buf[4][32];
  std::snprintf(buf[0], 32, "%.2f", bd_model.baseline.acc);
  std::snprintf(buf[1], 32, "%.2f", bd_model.baseline.asr);
  std::snprintf(buf[2], 32, "%.2f", bd_model.baseline.ra);
  table.add_row({"Baseline", buf[0], buf[1], buf[2], "-"});

  for (const auto& name : eval::known_defenses()) {
    if (!only.empty() && name != only) continue;
    const auto setting =
        eval::run_setting(bd_model, name, spc, scale, seeder.next_u64());
    std::snprintf(buf[3], 32, "%.1f", mean_of(setting.seconds));
    table.add_row({eval::defense_display_name(name),
                   mean_std_string(setting.acc), mean_std_string(setting.asr),
                   mean_std_string(setting.ra), "-"});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
