// Table/figure harness: the one sweep in the repository. Every bench
// binary and the sweeping examples are a TableSpec run by run_table().
//
// Each paper table is (dataset, architecture) x attacks x SPC x defenses;
// each figure is the per-trial (ASR, ACC) / (ASR, RA) scatter of the same
// runs; each ablation or extension is the same sweep over defense variants
// (TableDefense factories). run_table() executes the sweep and prints rows
// in the paper's format (mean ± std over trials of ACC, ASR, RA and pruned
// units) plus optional scatter series.
//
// One item runner executes the sweep in both modes. The canonical work
// list is every attack's baseline followed by its (SPC, defense) cells,
// with every seed pre-drawn; the runner prepares an item's attack lazily
// under robust::Supervisor, produces the baseline or the cell's
// SettingResult (defense trials run supervised inside run_setting) and
// journals it. A failed preparation degrades the attack's baseline and
// every cell of it; a cell whose retry budget is exhausted — or whose
// config is quarantined — is printed as `degraded` in its metric columns
// with the failure reason summarized after the table, while every other
// cell completes; degraded items journal and resume like healthy ones.
//
// In-process mode walks the work list in order and renders the table
// from the collected results. With BDPROTO_JOURNAL=<path> every item is
// appended to a JSONL journal keyed by a stable config hash, flushed
// before the next item starts; with BDPROTO_RESUME=1 journaled items are
// decoded instead of run, so a restarted run prints tables
// byte-identical to an uninterrupted one, and an attack whose items are
// all journaled is never retrained.
//
// Shard-worker mode (BDPROTO_SHARD_LEASES set, or spec.shard filled in)
// hands the same runner to shard::run_session, which claims items
// through the lease file (shard/lease_file.h); the worker prints its
// stats instead of the table. The coordinator's merge pass — a plain
// resume run with sharding off — renders the table from the journal,
// byte-identically to a single-process run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "eval/runner.h"
#include "robust/journal.h"
#include "shard/worker.h"

namespace bd::eval {

/// One entry of a table's defense axis. A bare make_defense name converts
/// implicitly and builds that defense at the table's scale; an ablation or
/// extension variant brings its own factory. The label keys the variant's
/// journal entries and names its rows, so it must name the variant's
/// configuration: two entries that build different defenses never share a
/// label, and a variant never reuses a make_defense name.
struct TableDefense {
  TableDefense(const char* name);
  TableDefense(std::string name);
  TableDefense(std::string variant, DefenseFactory build);

  std::string label;
  DefenseFactory factory;
};

struct TableSpec {
  std::string title;
  std::string dataset;  // cifar | gtsrb
  std::string arch;     // preactresnet | vgg | efficientnet | mobilenet
  std::vector<std::string> attacks;
  /// Empty: the table prints each attack's baseline row only.
  std::vector<TableDefense> defenses;
  /// Also print per-trial scatter points (figure reproduction).
  bool scatter = false;
  /// Journal file for crash resumability; empty defers to BDPROTO_JOURNAL
  /// (journaling disabled when neither is set).
  std::string journal_path;
  /// Skip journal-completed cells; unset defers to BDPROTO_RESUME.
  std::optional<bool> resume;
  /// Scale override for tests; unset uses default_scale(dataset).
  std::optional<ExperimentScale> scale;
  /// Run as a shard worker with this config; unset defers to the
  /// BDPROTO_SHARD_* env (shard::shard_config_from_env()).
  std::optional<shard::ShardConfig> shard;
};

struct TableRun {
  std::vector<SettingResult> settings;  // per (attack, spc, defense)
  std::vector<std::pair<std::string, BackdoorMetrics>> baselines;
  std::size_t resumed_cells = 0;   // cells restored from the journal
  std::size_t degraded_cells = 0;  // cells (incl. baselines) that failed
  /// Set in shard-worker mode (settings/baselines stay empty there: the
  /// results live in the journal for the coordinator's merge pass).
  std::optional<shard::WorkerStats> worker_stats;
};

/// Runs the sweep and prints the table (and scatter series) to stdout.
TableRun run_table(const TableSpec& spec);

/// Decodes one table-journal entry. A baseline comes back with an empty
/// `defense` and its undefended evaluation as the one trial in acc/asr/ra.
/// This and run_table's encoder are the only code that knows the schema.
/// A numeric field that does not parse whole throws std::runtime_error
/// naming it (robust::journal_number), like any other journal damage.
SettingResult decode_table_entry(const robust::JournalFields& fields);

/// "<attack>/baseline" or "<attack>/<defense>/spc=<n>", then the failure
/// and the attempt count: one line of the degraded-cells summary.
std::string degraded_line(const SettingResult& s);

}  // namespace bd::eval
