// Shard worker: one process's claim → run → done loop. Every worker
// derives the identical canonical item list from the identical spec +
// seed and repeatedly leases the first unfinished item no one holds
// through the lease file (shard/lease_file.h). A dead worker's leases go
// with its descriptors, so it costs at most its in-flight cell; a cell
// whose holders keep dying is recorded degraded at the supervisor's
// quarantine threshold instead of executed. A session is
// single-threaded.
//
// Worker mode is activated per process by the coordinator via env:
//   BDPROTO_SHARD_LEASES  lease file path (presence enables the mode)
//   BDPROTO_SHARD_WORKER  this worker's id ("w1", "w2", ...)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace bd::shard {

struct ShardConfig {
  std::string lease_path;
  std::string worker_id;
  /// Idle re-scan interval while other workers hold the remaining cells.
  double poll_interval_seconds = 0.05;
  /// Unfinished claims before a cell is quarantined; <= 0 defers to the
  /// supervisor's quarantine_strikes.
  int quarantine_strikes = 0;
};

/// Worker config from the BDPROTO_SHARD_* env, or nullopt when this
/// process is not a shard worker (empty/unset lease path).
std::optional<ShardConfig> shard_config_from_env();

struct WorkerStats {
  std::int64_t claimed = 0;      // cells this worker won a lease on
  std::int64_t stolen = 0;       // of those, cells an earlier claim left unfinished
  std::int64_t completed = 0;    // cells executed to a durable result
  std::int64_t quarantined = 0;  // cells recorded degraded on strikes
};

/// Executes cell `index`; must make the result durable (journal append)
/// before returning — the session marks the cell done right after.
using RunCell = std::function<void(std::size_t index)>;
/// Records a degraded result for cell `index` (quarantined: `reason`).
using QuarantineCell =
    std::function<void(std::size_t index, const std::string& reason)>;

/// One worker session: claims and runs cells until every key in `keys`
/// is done in the lease file (whether this worker or another finished
/// it). An exception from a callback releases the held lease, so another
/// worker retries the cell at once, and propagates.
WorkerStats run_session(const ShardConfig& config,
                        const std::vector<std::string>& keys,
                        const RunCell& run_cell,
                        const QuarantineCell& quarantine_cell);

}  // namespace bd::shard
