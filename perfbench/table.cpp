// table_vgg: the cells of a Table II row, in process on two engine threads.
// Set-up trains one VGG BadNet backbone at quick scale. A unit is one cell:
// run_setting for one defense of the row at SPC 2 with one trial. Units
// cycle through the seven defenses and a run stops only at a cycle
// boundary, so every run measures the same mix of cells.
#include "bench.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "runtime/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kEngineThreads = 2;
constexpr std::int64_t kSpc = 2;
constexpr int kSetups = 2;
// At least three cycles (21 cells) per run, however fast the host. Cycle c
// uses row seed c mod kMinCycles, so every run averages three rows' work.
constexpr int kMinCycles = 3;
const char* const kDefenses[] = {"clp", "fp", "ft", "nad", "anp", "ftsam",
                                 "gradprune"};
constexpr std::size_t kCells = std::size(kDefenses);
// Whole cycles put the slowest defense's cells in the top seventh of the
// sorted cell times; p93 lies inside it for any run of two or more cycles.
constexpr double kTailPercentile = 93.0;

// Times are steal-free (see HostClock); `wall` keeps the raw interval.
struct Cell {
  double seconds = 0.0;
  double defend_seconds = 0.0;
  double wall = 0.0;
};

}  // namespace

Outcome run_table(const Options& options) {
  Outcome out;
  out.engine_threads = kEngineThreads;
  bd::runtime::set_thread_count(kEngineThreads);
  Recorder rec(options.trace);
  RefStore refs(options.refs_dir + "/table_vgg.tsv");
  bd::eval::ExperimentScale scale = bd::eval::default_scale("cifar");
  scale.trials = 1;

  // Set-up trains the backbone kSetups times from the same seed; every
  // training must reproduce the same baseline. The last one is used.
  std::vector<double> setups;
  std::unique_ptr<bd::eval::BackdooredModel> backbone;
  for (int i = 0; i < kSetups; ++i) {
    const HostClock s0 = HostClock::now();
    backbone = std::make_unique<bd::eval::BackdooredModel>(
        bd::eval::prepare_backdoored_model("cifar", "vgg", "badnet", scale,
                                           derive_seed(options.seed, 100)));
    setups.push_back(steal_free_seconds(s0, HostClock::now()));
    refs.check("backbone seed=" + std::to_string(options.seed),
               exact(backbone->baseline.acc) + " " +
                   exact(backbone->baseline.asr) + " " +
                   exact(backbone->baseline.ra),
               out);
  }
  const bd::eval::BackdooredModel& backdoored = *backbone;

  // The defenses' early stopping depends on the seed, so a cell's work does
  // too; each run averages the same kMinCycles row seeds. A cell that
  // repeats a seed must reproduce its earlier result exactly. Traced runs
  // alternate untraced and traced cycles of the same seed, so the tracing
  // overhead is measured like for like.
  std::vector<Cell> cells, traced_cells;
  const HostClock start = HostClock::now();
  // A traced run always finishes the pair of cycles it started.
  for (int c = 0; c < kMinCycles || (options.trace && c % 2 == 1) ||
                  now_seconds() - start.wall < options.seconds;
       ++c) {
    const bool traced = options.trace && c % 2 == 1;
    const std::uint64_t row_seed =
        derive_seed(options.seed, static_cast<std::uint64_t>(
                                      (options.trace ? c / 2 : c) % kMinCycles));
    Recorder off(false);
    Recorder& use = traced ? rec : off;
    for (std::size_t d = 0; d < kCells; ++d) {
      const std::string name = kDefenses[d];
      ++out.attempted;
      Cell cell;
      const HostClock t0 = HostClock::now();
      double defend_seconds = 0.0;
      try {
        Scope span(use, "defense." + name, c * static_cast<int>(kCells) + static_cast<int>(d));
        const bd::eval::SettingResult s = bd::eval::run_setting(
            backdoored, name, kSpc, scale, derive_seed(row_seed, d));
        if (s.degraded || s.acc.size() != 1 || s.attempts != 1) {
          ++out.failed;
          out.errors.push_back(name + " cell degraded after " +
                               std::to_string(s.attempts) +
                               " attempts: " + s.failure);
          continue;
        }
        defend_seconds = s.seconds.front();
        refs.check("cell seed=" + std::to_string(row_seed) + " " + name,
                   exact(s.acc.front()) + " " + exact(s.asr.front()) + " " +
                       exact(s.ra.front()) + " pruned=" +
                       std::to_string(s.pruned.front()),
                   out);
      } catch (const std::exception& e) {
        ++out.failed;
        out.errors.push_back(name + " threw: " + e.what());
        continue;
      }
      const HostClock t1 = HostClock::now();
      cell.wall = t1.wall - t0.wall;
      cell.seconds = steal_free_seconds(t0, t1);
      cell.defend_seconds = defend_seconds * run_share(t0, t1);
      (traced ? traced_cells : cells).push_back(cell);
    }
  }
  const HostClock end = HostClock::now();
  refs.save();

  std::vector<double> latency, defend, wall;
  for (const Cell& cell : cells) {
    latency.push_back(cell.seconds);
    defend.push_back(cell.defend_seconds);
    wall.push_back(cell.wall);
  }
  const auto n = static_cast<std::int64_t>(cells.size());
  if (!options.trace) {
    add_host_metrics(median(wall), run_share(start, end), n, out);
    out.add("setup_s", median(setups), "s", kSetups, "train the VGG backbone");
    out.add("latency_p50_s", median(latency), "s", n, "one Table II cell");
    out.add("latency_tail_s", percentile(latency, kTailPercentile), "s", n,
            percentile_label(kTailPercentile) + " of cell time");
    out.add("defend_p50_s", median(defend), "s", n,
            "defense apply() time of a cell");
    out.add("throughput_per_min",
            60.0 * static_cast<double>(n) / steal_free_seconds(start, end),
            "1/min", n, "cells per minute");
    return out;
  }

  const auto nt = static_cast<std::int64_t>(traced_cells.size());
  for (const char* name : kDefenses) {
    out.add(std::string("defense.") + name + "_s",
            median(rec.durations(std::string("defense.") + name)), "s", nt / static_cast<std::int64_t>(kCells));
  }
  // Traced cycle k pairs with untraced cycle k: the same cells in order.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced_cells.size() && i < cells.size(); ++i) {
    overhead.push_back(traced_cells[i].seconds - cells[i].seconds);
  }
  out.add("trace.overhead_s", median(overhead), "s", nt,
          "traced cell minus the untraced cell of the same seed");

  // Forward-only evaluation of the backbone on its three test sets.
  {
    bd::Rng rng(1);
    auto model = backdoored.instantiate(rng);
    const double t0 = now_seconds();
    bd::eval::evaluate_backdoor(*model, backdoored.clean_test, backdoored.asr_test, backdoored.ra_test);
    const double images = static_cast<double>(
        backdoored.clean_test.size() + backdoored.asr_test.size() + backdoored.ra_test.size());
    out.add("eval.infer_img_per_s", images / (now_seconds() - t0), "img/s", 1);
  }

  run_pipeline_probe(options, out);
  ProbeConfig probe;
  probe.spec = backdoored.spec;
  probe.image_size = scale.data.height;
  probe.batch = 20;  // SPC 2 x 10 classes: the defenders' whole set
  probe.engine_threads = kEngineThreads;
  probe.work_dir = options.work_dir;
  run_layer_probes(probe, out);
  rec.write(options.state_dir + "/trace_table_vgg_" +
            std::to_string(options.seed) + ".json");
  return out;
}

}  // namespace perfbench
