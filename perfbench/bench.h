// Shared pieces of the end-to-end benchmark: run options, the metric and
// outcome records every workload fills in, the benchmark's own span
// recorder (spans live in memory and are written out at exit), summary
// statistics and the cross-run reference store behind the output checks.
//
// Layers are timed from outside: every span wraps a call into a public
// function of a src/ module. The program's own obs probes stay off.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "models/factory.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;  // survives runs: traces, results
  std::string refs_dir;   // reference results of this source version
  std::string work_dir;   // this run's scratch files, removed at exit
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
  std::string note;
};

/// What one workload run produced: metrics, failure accounting and the
/// output-check verdict.
struct Outcome {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks
  // Concurrency the workload pinned, recorded with the result.
  int engine_threads = 0;
  int serve_workers = 0;
  int serve_clients = 0;

  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples, const std::string& note = "");
  void check(bool ok, const std::string& what);
};

double now_seconds();

/// One reading of the clocks behind steal-free timing. On a virtual
/// machine the hypervisor takes CPUs away from the guest ("steal"); while
/// it does, wall time runs on but the process makes no progress, so wall
/// times drift with the load of other guests. Steal is read from the
/// first line of /proc/stat (all CPUs); it reads 0 where not accounted.
struct HostClock {
  double wall = 0.0;   // steady clock, seconds
  double cpu = 0.0;    // CPU time of the process, all threads
  double steal = 0.0;  // hypervisor steal, summed over the host's CPUs
  static HostClock now();
};

/// Share of its runnable time the process actually ran between two
/// readings: cpu / (cpu + steal), 1 when neither advanced. Scaling a wall
/// interval by it removes the steal the process suffered.
double run_share(const HostClock& from, const HostClock& to);

/// Wall seconds from `from` to `to` with steal removed.
double steal_free_seconds(const HostClock& from, const HostClock& to);

/// Adds the diagnostics printed beside the end-to-end metrics (not part of
/// BENCHMARK.json): the raw wall-clock unit median and the run share of the
/// measured window.
void add_host_metrics(double wall_p50, double share, std::int64_t samples,
                      Outcome& outcome);

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
/// "p75", "p90.7": a percentile as a label for metric notes.
std::string percentile_label(double pct);

/// Exact text of a double (round-trips bit for bit).
std::string exact(double v);

/// splitmix64 step: derives the per-unit seed list from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Spans recorded by the benchmark around its calls into the program.
/// Disabled recorders cost one branch per scope.
class Recorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int unit = -1;
  };

  explicit Recorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const std::string& name, int unit);
  void end(int id);

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Summed self time (duration minus direct children) of the spans called
  /// `name` over their summed duration: the share no child span covers.
  double unattributed_share(const std::string& name) const;

  /// Writes every span as a JSON array (name, start/end ns, parent, unit,
  /// self ns). Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::int64_t child_ns(int id) const;

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread; nests under the thread's open span.
class Scope {
 public:
  Scope(Recorder& recorder, const std::string& name, int unit = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& recorder_;
  int id_ = -1;
};

/// Reference results kept across runs in the state directory: the first
/// run that computes a key stores its value, later runs must reproduce it.
class RefStore {
 public:
  explicit RefStore(std::string path);
  /// Compares `value` with the stored reference for `key` (or stores it).
  void check(const std::string& key, const std::string& value,
             Outcome& outcome);
  void save() const;

 private:
  std::string path_;
  std::map<std::string, std::string> refs_;
  bool dirty_ = false;
};

/// Model shapes and budgets for the layer probes of one workload.
struct ProbeConfig {
  bd::models::ModelSpec spec;
  std::int64_t image_size = 12;
  std::int64_t batch = 32;
  int engine_threads = 1;
  std::string work_dir;
};

/// Times the per-layer probes (tensor, autograd, nn, optim, runtime,
/// robust journal, core scoring) at the workload's shapes and thread count.
void run_layer_probes(const ProbeConfig& config, Outcome& outcome);

/// One paper pipeline (synthetic data, poison, train, Grad-Prune, eval) on
/// one engine thread, traced: adds the data, attack, eval and core stage
/// metrics to `outcome` and checks the pipeline's results. Leaves the
/// engine pinned to one thread.
void run_pipeline_probe(const Options& options, Outcome& outcome);

Outcome run_table(const Options& options);
Outcome run_serve(const Options& options);

}  // namespace perfbench
