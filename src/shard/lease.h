// Lease state machine over the shard ledger's record stream.
//
// A LeaseTable replays ledger records (see shard/ledger.h) into per-cell
// state. Each cell — keyed by the same FNV-1a config hash the run journal
// uses — moves through:
//
//   kOpen ──claim──► kLeased ──done──► kDone (terminal)
//     ▲                 │
//     └────abandon──────┘
//
// A kLeased cell whose heartbeat is older than the lease TTL is *expired*:
// any worker may issue a new claim carrying the steal flag, which takes
// the lease over without an abandon record (the previous holder is dead
// and cannot write one). Every lost lease — a steal, an abandon, or the
// currently-expired holder — is a strike against the cell; at the
// supervisor's quarantine threshold the next claimer records the cell as
// degraded instead of executing it, carrying PR 4's quarantine semantics
// across process boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace bd::shard {

enum class LedgerOp { kClaim, kHeartbeat, kDone, kAbandon };

/// One ledger line, decoded. `ts_ms` is machine-wide monotonic time
/// (shard::now_ms): comparable across worker processes on one host.
struct LedgerRecord {
  LedgerOp op = LedgerOp::kClaim;
  std::string key;
  std::string worker;
  std::int64_t ts_ms = 0;
  /// Claim only: the lease was taken over from an expired holder.
  bool steal = false;
  /// Abandon reason / done annotation (e.g. "quarantined").
  std::string note;
};

struct LeaseState {
  enum class Phase { kOpen, kLeased, kDone };
  Phase phase = Phase::kOpen;
  /// Current (kLeased) or last holder.
  std::string holder;
  /// Timestamp of the holder's claim or latest heartbeat.
  std::int64_t last_beat_ms = 0;
  int claims = 0;    // claim records seen (first claim + every steal)
  int steals = 0;
  int abandons = 0;
  /// Worker that completed the cell ("" until kDone).
  std::string done_worker;
  std::string done_note;

  bool expired(std::int64_t now_ms, std::int64_t ttl_ms) const {
    return phase == Phase::kLeased && now_ms - last_beat_ms > ttl_ms;
  }
};

/// Aggregate view for `bdctl verify` and the coordinator summary.
struct LedgerSummary {
  std::size_t cells = 0;
  std::size_t done = 0;
  std::size_t leased = 0;  // claimed but not done (orphaned if the run is over)
  std::size_t expired = 0; // leased with a stale heartbeat
  std::size_t steals = 0;
  std::size_t abandons = 0;
  std::size_t heartbeats = 0;
  /// Cells completed / claims issued per worker id (sorted for output).
  std::map<std::string, std::int64_t> done_by_worker;
  std::map<std::string, std::int64_t> claims_by_worker;
};

class LeaseTable {
 public:
  /// Folds one record in, in append order. Records against a kDone cell
  /// are ignored (late heartbeats from a raced-out holder).
  void apply(const LedgerRecord& r);

  /// State for `key`, or nullptr when never mentioned.
  const LeaseState* find(const std::string& key) const;

  bool done(const std::string& key) const;

  /// True when a worker may claim `key` now: never claimed, abandoned, or
  /// leased with an expired heartbeat. Done cells are never claimable.
  bool claimable(const std::string& key, std::int64_t now_ms,
                 std::int64_t ttl_ms) const;

  /// Lost leases of `key`: steals already issued + explicit abandons +
  /// the currently-expired holder (who is about to be stolen from).
  int strikes(const std::string& key, std::int64_t now_ms,
              std::int64_t ttl_ms) const;

  LedgerSummary summarize(std::int64_t now_ms, std::int64_t ttl_ms) const;

  const std::map<std::string, LeaseState>& states() const { return states_; }

 private:
  std::map<std::string, LeaseState> states_;
  std::size_t steals_ = 0;
  std::size_t abandons_ = 0;
  std::size_t heartbeats_ = 0;
  std::map<std::string, std::int64_t> claims_by_worker_;
  std::map<std::string, std::int64_t> done_by_worker_;
};

/// Field-map encoding shared with the run journal's line grammar: the
/// record's key goes in the line key slot, everything else into fields
/// ("op", "worker", "ts", optional "steal", "note").
std::map<std::string, std::string> record_to_fields(const LedgerRecord& r);

/// Inverse of record_to_fields. Returns false on an unknown op, a missing
/// member or a "ts" that is not a whole integer (parse_whole) instead of
/// throwing, so the ledger skips and counts the line.
bool record_from_fields(const std::string& key,
                        const std::map<std::string, std::string>& fields,
                        LedgerRecord& out);

}  // namespace bd::shard
