#include "shard/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string_view>
#include <stdexcept>

#include "obs/obs.h"
#include "robust/journal.h"
#include "util/logging.h"

namespace bd::shard {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// One ledger line: the journal grammar carrying a lease record.
bool decode_record(std::string_view line, LedgerRecord& record) {
  std::string key;
  robust::JournalFields fields;
  return robust::parse_journal_line(line, key, fields) &&
         record_from_fields(key, fields, record);
}

/// RAII exclusive fcntl lock over the whole ledger file. Advisory and
/// per-process: it serializes claim races *between* worker processes;
/// in-process threads are serialized by the LeaseLedger mutex.
class FcntlGuard {
 public:
  explicit FcntlGuard(int fd) : fd_(fd) {
    struct ::flock lk{};
    lk.l_type = F_WRLCK;
    lk.l_whence = SEEK_SET;
    int rc;
    do {
      rc = ::fcntl(fd_, F_SETLKW, &lk);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      throw std::runtime_error(std::string("ledger: fcntl lock failed: ") +
                               std::strerror(errno));
    }
  }
  ~FcntlGuard() {
    struct ::flock lk{};
    lk.l_type = F_UNLCK;
    lk.l_whence = SEEK_SET;
    ::fcntl(fd_, F_SETLK, &lk);
  }
  FcntlGuard(const FcntlGuard&) = delete;
  FcntlGuard& operator=(const FcntlGuard&) = delete;

 private:
  int fd_;
};

}  // namespace

LeaseLedger::LeaseLedger(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("ledger: cannot open '" + path_ +
                             "': " + std::strerror(errno));
  }
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  poll_locked();
}

LeaseLedger::~LeaseLedger() {
  if (fd_ >= 0) ::close(fd_);
}

void LeaseLedger::poll_locked() {
  char buf[4096];
  for (;;) {
    ssize_t n;
    do {
      n = ::pread(fd_, buf, sizeof(buf),
                  static_cast<off_t>(read_offset_));
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      throw std::runtime_error("ledger '" + path_ +
                               "': read failed: " + std::strerror(errno));
    }
    if (n == 0) break;
    pending_.append(buf, static_cast<std::size_t>(n));
    read_offset_ += static_cast<std::uintmax_t>(n);
  }
  // Consume complete lines; an unterminated tail (a writer killed
  // mid-append, or a reader racing a write on a filesystem without
  // atomic appends) stays pending until its newline lands.
  const std::size_t tail =
      robust::scan_lines(pending_, [this](std::string_view line, std::size_t) {
        ++pending_line_;
        if (line.empty()) return;
        LedgerRecord record;
        if (decode_record(line, record)) {
          table_.apply(record);
          return;
        }
        // A dead writer's torn tail concatenated with the next worker's
        // append. Dropping a record is always safe here: a lost claim or
        // heartbeat at worst causes a duplicate execution of a
        // deterministic cell, a lost done record causes a re-execution —
        // both journal identical results.
        BD_LOG(Warn) << "ledger '" << path_ << "': skipping malformed line "
                     << pending_line_ << " (" << line.size() << " bytes)";
      });
  pending_.erase(0, tail);
}

void LeaseLedger::append_locked(const LedgerRecord& r) {
  std::string line = robust::encode_journal_line(r.key, record_to_fields(r));
  // A non-empty pending tail means the file currently ends mid-line (a
  // killed writer's torn append). Lead with a newline so the torn line is
  // terminated — and skipped as malformed on replay — instead of fusing
  // with our record and losing it. Still one write(2), and a leading
  // newline that races another process's complete append merely produces
  // an empty line, which every reader skips.
  poll_locked();
  if (!pending_.empty()) line.insert(line.begin(), '\n');
  robust::append_to_fd(fd_, line, path_);
  // Fold the new record in by reading it back: O_APPEND writes are
  // totally ordered, so polling from the old offset replays any records
  // concurrent processes slipped in before ours, then ours, in file
  // order — one code path, no double-apply.
  poll_locked();
}

void LeaseLedger::append(const LedgerRecord& r) {
  if (!enabled()) return;
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  append_locked(r);
}

void LeaseLedger::poll() {
  if (!enabled()) return;
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  poll_locked();
}

bool LeaseLedger::try_claim(const std::string& key, const std::string& worker,
                            std::int64_t ttl_ms, bool* stole) {
  if (stole != nullptr) *stole = false;
  if (!enabled()) return false;
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  const FcntlGuard file_lock(fd_);
  poll_locked();  // another process may have claimed/finished it
  const std::int64_t now = now_ms();
  if (!table_.claimable(key, now, ttl_ms)) return false;
  const LeaseState* state = table_.find(key);
  // Capture the dead holder before append_locked replays our claim and
  // overwrites it with `worker`.
  const std::string victim =
      state != nullptr && state->phase == LeaseState::Phase::kLeased
          ? state->holder
          : std::string();
  LedgerRecord claim;
  claim.op = LedgerOp::kClaim;
  claim.key = key;
  claim.worker = worker;
  claim.ts_ms = now;
  claim.steal = !victim.empty();
  append_locked(claim);
  if (stole != nullptr) *stole = claim.steal;
  BD_OBS_COUNT("shard.claims", 1);
  if (claim.steal) {
    BD_OBS_COUNT("shard.steals", 1);
    BD_LOG(Info) << "shard: " << worker << " stole expired lease on " << key
                 << " from " << victim;
  }
  return true;
}

bool LeaseLedger::done(const std::string& key) const {
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  return table_.done(key);
}

bool LeaseLedger::claimable(const std::string& key,
                            std::int64_t ttl_ms) const {
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  return table_.claimable(key, now_ms(), ttl_ms);
}

int LeaseLedger::strikes(const std::string& key, std::int64_t ttl_ms) const {
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  return table_.strikes(key, now_ms(), ttl_ms);
}

LedgerSummary LeaseLedger::summarize(std::int64_t ttl_ms) const {
  std::lock_guard<runtime::OrderedMutex<runtime::LockRank::kShardLedger>>
      lock(mutex_);
  return table_.summarize(now_ms(), ttl_ms);
}

LedgerInspection inspect_ledger(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ledger: cannot open '" + path + "'");
  }
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  LedgerInspection out;
  std::size_t line_no = 0;
  const auto replay = [&](std::string_view line) {
    ++line_no;
    LedgerRecord record;
    if (line.empty() || !decode_record(line, record)) return false;
    out.table.apply(record);
    ++out.records;
    return true;
  };
  const std::size_t tail = robust::scan_lines(
      data, [&](std::string_view line, std::size_t) {
        if (replay(line) || line.empty()) return;
        // Same warn-and-count policy as LeaseLedger::poll_locked: dropped
        // records are self-healing, but the inspection surfaces the damage.
        ++out.malformed;
        BD_LOG(Warn) << "ledger '" << path << "': malformed line " << line_no
                     << " (" << line.size() << " bytes) skipped";
      });
  const std::string_view final_line = std::string_view(data).substr(tail);
  if (!final_line.empty() && !replay(final_line)) {
    out.torn_tail = true;  // a killed writer's partial append: tolerated
    BD_LOG(Warn) << "ledger '" << path << "': torn final line " << line_no
                 << " (" << final_line.size() << " bytes) ignored";
  }
  return out;
}

}  // namespace bd::shard
