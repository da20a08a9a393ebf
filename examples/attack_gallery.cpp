// Attack gallery: train a backdoored model for every attack type and print
// the undefended baseline metrics (ACC / ASR / RA). Demonstrates the
// attack side of the pipeline and doubles as a quick health check that
// every trigger actually implants under the current scale settings.
//
// Usage: attack_gallery [arch] [dataset]
//
// A table with no defenses: run_table prints each attack's baseline row,
// on the same backbones the paper tables train.
#include <cstdio>
#include <string>

#include "eval/table_bench.h"

int main(int argc, char** argv) {
  bd::eval::TableSpec spec;
  spec.arch = argc > 1 ? argv[1] : "preactresnet";
  spec.dataset = argc > 2 ? argv[2] : "cifar";
  spec.title = "Attack gallery: " + spec.arch + " on " + spec.dataset;
  spec.attacks = {"badnet", "blended", "lf", "bpp"};
  bd::eval::run_table(spec);
  std::printf("A successful attack shows high ACC and high ASR.\n");
  return 0;
}
