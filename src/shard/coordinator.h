// Shard coordinator: spawns N worker processes over one table bench,
// supervises them with waitpid, and runs the deterministic merge pass.
//
// Workers are the bench binary itself, re-executed with the
// BDPROTO_SHARD_* env set; each claims cells through the lease file and
// appends results to the shared run journal. A worker that dies forfeits
// at most its in-flight cell: the kernel drops its lease and a survivor
// takes the cell. The merge pass re-executes the bench with sharding off
// and BDPROTO_RESUME=1, so it renders the table from the journal
// (completing any cells the fleet lost): byte-identical across worker
// counts and crash schedules.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "shard/lease_file.h"

namespace bd::shard {

struct CoordinatorOptions {
  int workers = 2;
  /// Shared run journal; the lease file defaults to `<journal>.leases`.
  std::string journal_path = "shard.journal";
  std::string lease_path;
  /// Merge-pass stdout destination ("" inherits the coordinator's).
  std::string merged_out;
  /// Per-worker BDPROTO_FAULTS overrides keyed by 1-based worker index:
  /// chaos-test one worker (e.g. {2: "crash_worker@1"}) while the rest
  /// run clean.
  std::map<int, std::string> worker_faults;
  /// The bench command (argv). Must run a table bench that honours the
  /// BDPROTO_SHARD_* worker protocol (any eval::run_table caller does).
  std::vector<std::string> command;
  /// Keep existing journal/lease file and finish the remaining cells;
  /// default starts fresh by removing both files.
  bool resume = false;
};

struct WorkerExit {
  std::string worker_id;
  int pid = 0;
  int exit_code = 0;   // -1 when killed by a signal
  int signal = 0;      // terminating signal (0 when exited)
  std::string log_path;
};

struct CoordinatorReport {
  int exit_code = 0;  // merge pass exit status
  std::vector<WorkerExit> workers;
  int crashed_workers = 0;  // died to a signal
  int failed_workers = 0;   // nonzero exit
  LeaseSummary leases;
};

/// Runs the sharded bench end to end; prints per-worker exits, each
/// worker's own stats line and the lease summary to stdout. Throws on spawn failure.
CoordinatorReport run_sharded(const CoordinatorOptions& options);

}  // namespace bd::shard
