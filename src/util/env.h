// Experiment-scale configuration sourced from the environment.
//
// Every experiment binary honours:
//   BDPROTO_MODE=quick|full   (default quick)  - quick shrinks dataset sizes
//                                                and epoch counts so the full
//                                                bench suite runs on one core.
//   BDPROTO_TRIALS=<n>        - overrides trials per setting.
//   BDPROTO_SEED=<n>          - base seed for the whole experiment.
//   BDPROTO_THREADS=<n>       - worker threads for the bd::runtime parallel
//                               engine (default: hardware_concurrency;
//                               1 forces the legacy serial path; clamped
//                               to >= 1).
//
// Supervised execution (see robust/supervisor.h):
//   BDPROTO_DEADLINE=<secs>   - per-attempt wall-clock budget (0/unset: off)
//   BDPROTO_STALL=<secs>      - longest gap between two polls (default:
//                               the deadline)
//   BDPROTO_RETRIES=<n>       - retries after a failed attempt (default 2)
//   BDPROTO_FAULTS=<spec>     - deterministic fault injection, e.g.
//                               "hang@2,io_fail@3" (robust/fault_injector.h)
//
// Crash-resumable journaling (see robust/journal.h):
//   BDPROTO_JOURNAL=<path>    - append completed cells to a JSONL journal
//   BDPROTO_RESUME=1          - skip cells already in the journal
//   BDPROTO_JOURNAL_FSYNC=1   - fsync journal appends (durability
//                               over throughput; default off)
//
// Serve clients (see serve/client.h; the daemon's listener, connection
// cap and deadlines are `bdctl serve` flags only):
//   BDPROTO_CONNECT_TIMEOUT=<secs> - client connect budget (default 5)
//   BDPROTO_IO_TIMEOUT=<secs>   - client per-send/recv budget (default 30)
//   BDPROTO_CLIENT_DEADLINE=<secs> - client overall budget for one
//                                 retried request incl. backoff sleeps
//                                 (default 120)
//   BDPROTO_RETRY_BUDGET=<n>    - client retries after the first attempt
//                                 (default 4; retried submits need a
//                                 job.client_id to stay idempotent)
//
// Sharded execution (see shard/worker.h; normally set by `bdctl shard
// run` rather than by hand):
//   BDPROTO_SHARD_LEASES=<path> - run as a shard worker against this
//                                 lease file (empty/unset: normal run)
//   BDPROTO_SHARD_WORKER=<id>   - worker id in its stats line (default w1)
//
// Parse rule: a numeric knob must parse as a whole and BDPROTO_MODE must be
// exactly quick or full; an empty value means unset. Any other value (e.g.
// BDPROTO_TRIALS=1e3, BDPROTO_RESUME=yes) throws std::invalid_argument
// naming the variable and value instead of silently meaning a default.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bd {

enum class RunMode { kQuick, kFull };

/// Run mode named by BDPROTO_MODE, read now: quick when unset or empty,
/// std::invalid_argument for anything but "quick" or "full".
RunMode env_run_mode();

/// Current run mode: env_run_mode(), read once and cached.
RunMode run_mode();

/// True when run_mode() == kFull.
bool full_mode();

/// The one whole-value number rule, shared by the env knobs below and the
/// command-line parsers: all of `text` parses as a T with std::from_chars,
/// so a leading space or '+', any trailing character ("2x", "1e3" as an
/// integer) and an out-of-range value all give std::nullopt, as does empty
/// text. Defined for std::int64_t and double.
template <typename T>
std::optional<T> parse_whole(std::string_view text);

/// Environment override helpers. env_string returns the raw value. env_int
/// and env_double treat an empty value as unset and otherwise require
/// parse_whole to accept it: anything else throws std::invalid_argument
/// naming the variable and its value, so a typo never silently selects a
/// default.
std::optional<std::string> env_string(const std::string& name);
std::optional<std::int64_t> env_int(const std::string& name);
std::optional<double> env_double(const std::string& name);

/// Trials per experiment setting: BDPROTO_TRIALS if set (std::invalid_argument
/// unless it is a whole integer >= 1), otherwise `full_default` in full mode
/// and `quick_default` in quick mode.
int trial_count(int quick_default, int full_default);

/// Base seed for experiments: BDPROTO_SEED if set, otherwise 1234.
std::uint64_t base_seed();

/// Engine thread count: BDPROTO_THREADS if set (clamped to >= 1), otherwise
/// hardware_concurrency (or 1 when that is unknown). Read once and cached;
/// tests override via bd::runtime::set_thread_count() instead of the env.
int thread_count();

/// Picks a scale-dependent value: quick-mode value vs full-mode value.
template <typename T>
T scaled(T quick_value, T full_value) {
  return full_mode() ? full_value : quick_value;
}

}  // namespace bd
