#include "shard/lease.h"

#include <optional>

#include "util/env.h"

namespace bd::shard {

namespace {

const char* op_name(LedgerOp op) {
  switch (op) {
    case LedgerOp::kClaim: return "claim";
    case LedgerOp::kHeartbeat: return "heartbeat";
    case LedgerOp::kDone: return "done";
    case LedgerOp::kAbandon: return "abandon";
  }
  return "claim";
}

bool parse_op(const std::string& name, LedgerOp& out) {
  if (name == "claim") out = LedgerOp::kClaim;
  else if (name == "heartbeat") out = LedgerOp::kHeartbeat;
  else if (name == "done") out = LedgerOp::kDone;
  else if (name == "abandon") out = LedgerOp::kAbandon;
  else return false;
  return true;
}

}  // namespace

void LeaseTable::apply(const LedgerRecord& r) {
  LeaseState& s = states_[r.key];
  if (s.phase == LeaseState::Phase::kDone) return;  // terminal: late writers
  switch (r.op) {
    case LedgerOp::kClaim:
      s.phase = LeaseState::Phase::kLeased;
      s.holder = r.worker;
      s.last_beat_ms = r.ts_ms;
      ++s.claims;
      ++claims_by_worker_[r.worker];
      if (r.steal) {
        ++s.steals;
        ++steals_;
      }
      break;
    case LedgerOp::kHeartbeat:
      // Only the current holder's heartbeats extend the lease; a stale
      // beat from a stolen-from holder must not resurrect its lease.
      if (s.phase == LeaseState::Phase::kLeased && s.holder == r.worker) {
        s.last_beat_ms = r.ts_ms;
      }
      ++heartbeats_;
      break;
    case LedgerOp::kDone:
      s.phase = LeaseState::Phase::kDone;
      s.done_worker = r.worker;
      s.done_note = r.note;
      ++done_by_worker_[r.worker];
      break;
    case LedgerOp::kAbandon:
      if (s.phase == LeaseState::Phase::kLeased && s.holder == r.worker) {
        s.phase = LeaseState::Phase::kOpen;
        s.holder.clear();
      }
      ++s.abandons;
      ++abandons_;
      break;
  }
}

const LeaseState* LeaseTable::find(const std::string& key) const {
  const auto it = states_.find(key);
  return it == states_.end() ? nullptr : &it->second;
}

bool LeaseTable::done(const std::string& key) const {
  const LeaseState* s = find(key);
  return s != nullptr && s->phase == LeaseState::Phase::kDone;
}

bool LeaseTable::claimable(const std::string& key, std::int64_t now_ms,
                           std::int64_t ttl_ms) const {
  const LeaseState* s = find(key);
  if (s == nullptr) return true;  // never claimed
  switch (s->phase) {
    case LeaseState::Phase::kOpen: return true;
    case LeaseState::Phase::kLeased: return s->expired(now_ms, ttl_ms);
    case LeaseState::Phase::kDone: return false;
  }
  return false;
}

int LeaseTable::strikes(const std::string& key, std::int64_t now_ms,
                        std::int64_t ttl_ms) const {
  const LeaseState* s = find(key);
  if (s == nullptr) return 0;
  return s->steals + s->abandons + (s->expired(now_ms, ttl_ms) ? 1 : 0);
}

LedgerSummary LeaseTable::summarize(std::int64_t now_ms,
                                    std::int64_t ttl_ms) const {
  LedgerSummary summary;
  summary.cells = states_.size();
  summary.steals = steals_;
  summary.abandons = abandons_;
  summary.heartbeats = heartbeats_;
  summary.claims_by_worker = claims_by_worker_;
  summary.done_by_worker = done_by_worker_;
  for (const auto& [key, s] : states_) {
    (void)key;
    switch (s.phase) {
      case LeaseState::Phase::kDone:
        ++summary.done;
        break;
      case LeaseState::Phase::kLeased:
        ++summary.leased;
        if (s.expired(now_ms, ttl_ms)) ++summary.expired;
        break;
      case LeaseState::Phase::kOpen:
        break;
    }
  }
  return summary;
}

std::map<std::string, std::string> record_to_fields(const LedgerRecord& r) {
  std::map<std::string, std::string> fields{
      {"op", op_name(r.op)},
      {"worker", r.worker},
      {"ts", std::to_string(r.ts_ms)}};
  if (r.steal) fields.emplace("steal", "1");
  if (!r.note.empty()) fields["note"] = r.note;
  return fields;
}

bool record_from_fields(const std::string& key,
                        const std::map<std::string, std::string>& fields,
                        LedgerRecord& out) {
  const auto get = [&fields](const char* name) {
    const auto it = fields.find(name);
    return it == fields.end() ? std::string() : it->second;
  };
  if (!parse_op(get("op"), out.op)) return false;
  out.key = key;
  out.worker = get("worker");
  const std::optional<std::int64_t> ts = parse_whole<std::int64_t>(get("ts"));
  if (out.worker.empty() || !ts) return false;
  out.ts_ms = *ts;
  out.steal = get("steal") == "1";
  out.note = get("note");
  return true;
}

}  // namespace bd::shard
