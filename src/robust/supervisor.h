// Supervised trial execution: per-attempt deadline and stall budgets,
// retry with exponential backoff, and quarantine of repeatedly-failing
// configurations.
//
// Every unit of work (an attack preparation, one defense trial, a journal
// append) runs through Supervisor::run(key, fn):
//
//   * Each attempt runs inside a CancelScope carrying the caller's token
//     and the attempt's budgets. poll_cancellation(), called at batch/round
//     boundaries, throws Cancelled once the token is cancelled, the attempt
//     exceeds its wall-clock deadline, or the gap since the previous poll
//     exceeds the stall budget. The work stops only at such a boundary, so
//     no model mutation is ever torn mid-update.
//   * A failed or timed-out attempt is retried with exponential backoff.
//     The supervisor never touches any RNG: callers re-derive all
//     randomness inside `fn` from seeds drawn BEFORE the first attempt, so
//     a retried trial is bit-identical to an undisturbed one and journal
//     keys never shift.
//   * Each failure adds a strike against `key`; at `quarantine_strikes`
//     the key is quarantined and further runs are refused immediately
//     (RunStatus::kQuarantined), letting the rest of a table bench
//     complete while a poisoned configuration is reported as degraded.
//
// Knobs (read once by Supervisor::instance()):
//   BDPROTO_DEADLINE  per-attempt wall-clock budget in seconds (0 = off)
//   BDPROTO_STALL     longest gap between two polls, in seconds
//                     (default: the deadline)
//   BDPROTO_RETRIES   retries after the first failed attempt (default 2)
//
// SimulatedCrash (the `crash@n` fault) is deliberately NOT retried: it
// models a process kill, so it propagates to the caller like one. A
// std::invalid_argument (an unknown name, a malformed value) is permanent:
// the run fails after its one attempt, with no backoff and no strike.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "robust/cancel.h"
#include "runtime/ordered_mutex.h"

namespace bd::robust {

struct SupervisorConfig {
  /// Per-attempt wall-clock budget in seconds; 0 disables the total-budget
  /// check.
  double deadline_seconds = 0.0;
  /// Cancel at the first poll that comes more than this many seconds after
  /// the previous one (or the attempt's start); 0 defers to
  /// `deadline_seconds` (so a bare deadline also catches hangs).
  double stall_seconds = 0.0;
  /// Retries after the first failed attempt.
  int max_retries = 2;
  /// Backoff before retry k (1-based): initial * factor^(k-1) seconds.
  double backoff_initial_seconds = 0.05;
  double backoff_factor = 2.0;
  /// Accumulated failures of one key before it is quarantined.
  int quarantine_strikes = 3;
};

enum class RunStatus {
  kOk = 0,
  kFailed,       // retry budget exhausted
  kQuarantined,  // struck out (now or previously) — work refused or stopped
};

struct RunReport {
  RunStatus status = RunStatus::kOk;
  /// Attempts actually executed (0 when refused while quarantined).
  int attempts = 0;
  /// True when any attempt was stopped by its deadline or stall budget.
  bool timed_out = false;
  /// True when the run stopped because the caller-supplied external token
  /// was cancelled (e.g. a serve client cancelled its job). Externally
  /// cancelled runs are never retried and never add a strike.
  bool externally_cancelled = false;
  /// Last failure reason ("" on success).
  std::string failure;

  bool ok() const { return status == RunStatus::kOk; }
  std::int64_t retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

struct SupervisorStats {
  std::int64_t runs = 0;         // run() calls that executed at least once
  std::int64_t retries = 0;      // attempts beyond each run's first
  std::int64_t timeouts = 0;     // attempts stopped by a budget
  std::int64_t failures = 0;     // runs ending kFailed
  std::int64_t quarantines = 0;  // keys moved into quarantine
  std::int64_t refused = 0;      // runs refused because the key was quarantined
  std::int64_t cancelled = 0;    // runs stopped by an external cancel token
};

class Supervisor {
 public:
  /// Process-wide instance, configured from the environment knobs above.
  static Supervisor& instance();

  Supervisor() = default;
  explicit Supervisor(const SupervisorConfig& config) : config_(config) {}

  /// Runs `fn` under the budget/retry/quarantine policy. `fn` must be
  /// re-runnable: every attempt re-derives its state from pre-drawn seeds.
  /// When `external_cancel` is a valid token, its cancellation stops the
  /// attempt at the next poll_cancellation() boundary; an externally
  /// cancelled run stops without retrying and without striking `key`.
  RunReport run(const std::string& key, const std::function<void()>& fn,
                CancelToken external_cancel = CancelToken());

  SupervisorConfig config() const;
  /// Replaces the config and clears strikes + stats (test hook).
  void configure(const SupervisorConfig& config);
  /// Clears strikes + stats, keeping the config.
  void reset();

  bool quarantined(const std::string& key) const;
  int strikes(const std::string& key) const;
  SupervisorStats stats() const;

 private:
  mutable runtime::OrderedMutex<runtime::LockRank::kSupervisor> mutex_;
  SupervisorConfig config_;
  SupervisorStats stats_;
  std::map<std::string, int> strikes_;
  std::map<std::string, std::string> last_failure_;
};

}  // namespace bd::robust
