#include "shard/worker.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "robust/supervisor.h"
#include "shard/lease_file.h"
#include "util/env.h"
#include "util/logging.h"

namespace bd::shard {

std::optional<ShardConfig> shard_config_from_env() {
  const std::string leases = env_string("BDPROTO_SHARD_LEASES").value_or("");
  if (leases.empty()) return std::nullopt;
  ShardConfig config;
  config.lease_path = leases;
  config.worker_id = env_string("BDPROTO_SHARD_WORKER").value_or("w1");
  return config;
}

WorkerStats run_session(const ShardConfig& config,
                        const std::vector<std::string>& keys,
                        const RunCell& run_cell,
                        const QuarantineCell& quarantine_cell) {
  const std::uint32_t quarantine_strikes = static_cast<std::uint32_t>(
      config.quarantine_strikes > 0
          ? config.quarantine_strikes
          : robust::Supervisor::instance().config().quarantine_strikes);
  const auto idle = std::chrono::duration<double>(
      std::max(config.poll_interval_seconds, 0.001));
  auto& faults = robust::FaultInjector::instance();
  LeaseFile leases(config.lease_path, keys);
  std::vector<bool> done(keys.size(), false);
  std::size_t remaining = keys.size();
  WorkerStats stats;

  while (remaining > 0) {
    std::size_t pick = keys.size();
    std::uint32_t strikes = 0;
    for (std::size_t i = 0; i < keys.size() && pick == keys.size(); ++i) {
      if (done[i]) continue;
      const LeaseFile::Claim claim = leases.try_claim(i, &strikes);
      if (claim == LeaseFile::Claim::kWon) pick = i;
      if (claim == LeaseFile::Claim::kDone) {
        done[i] = true;
        --remaining;
      }
    }
    if (pick == keys.size()) {
      // Every remaining cell is leased to a live worker: idle until one
      // finishes or its holder dies.
      if (remaining > 0) std::this_thread::sleep_for(idle);
      continue;
    }

    const std::string& key = keys[pick];
    ++stats.claimed;
    BD_OBS_COUNT("shard.claims", 1);
    if (strikes > 0) {
      ++stats.stolen;
      BD_OBS_COUNT("shard.steals", 1);
      BD_LOG(Info) << "shard: " << config.worker_id << " took over " << key
                   << " after " << strikes << " unfinished claim(s)";
    }

    // Chaos hook: a SIGKILL here models a worker dying mid-cell. The
    // claim is counted, the done flag never comes, and the kernel drops
    // the lease.
    faults.fire_crash_worker("shard cell " + key);

    // An exception unwinds out of this function, whose LeaseFile then
    // closes and so releases the lease for another worker to retry.
    if (strikes >= quarantine_strikes) {
      const std::string reason =
          "quarantined after " + std::to_string(strikes) +
          " lost leases (workers died or abandoned mid-cell)";
      BD_LOG(Warn) << "shard: " << config.worker_id << " cell " << key << ": "
                   << reason;
      quarantine_cell(pick, reason);
      ++stats.quarantined;
    } else {
      BD_OBS_SPAN("shard.cell");
      run_cell(pick);
      ++stats.completed;
    }
    leases.finish(pick);
    BD_OBS_COUNT("shard.cells_done", 1);
    done[pick] = true;
    --remaining;
  }
  return stats;
}

}  // namespace bd::shard
