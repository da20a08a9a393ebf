// Lease file: the coordination file shard workers claim table items
// through (DESIGN.md §10). The kernel keeps the leases; the file keeps
// only what must outlive a process. Native byte order, like its locks
// local to one host:
//
//   header  32 bytes  magic "BDLEASES", version, cell count, table hash
//   slot i  16 bytes  {key hash, claims, done}, at 32 + 16 * i
//
// The table hash is FNV-1a over the slot key hashes in item order, so a
// run over another table fails naming the file. A lease is an
// open-file-description lock (F_OFD_SETLK) on a slot's bytes: two
// LeaseFiles conflict even inside one process, and the kernel drops the
// lock when its holder's descriptor closes, SIGKILL included. A stopped
// (SIGSTOP) but live worker keeps its lease; a hang inside a cell is the
// supervisor's stall budget's job. The header's own lock range is held only
// while a LeaseFile creates or validates the file; a creator writes the
// slots first and the header last, so a zero header is a torn
// initialization and is redone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bd::shard {

/// One slot as stored, plus whether some open file description holds
/// its lock (F_OFD_GETLK) when it was inspected.
struct SlotState {
  std::uint64_t key_hash = 0;
  std::uint32_t claims = 0;
  bool done = false;
  bool held = false;
};

/// Aggregate view for `bdctl verify` and the coordinator summary.
struct LeaseSummary {
  std::size_t cells = 0;
  std::size_t done = 0;
  std::size_t steals = 0;    // claims after each cell's first
  std::size_t live = 0;      // held by a running worker right now
  std::size_t orphaned = 0;  // claimed, not done, not held
};

LeaseSummary summarize(const std::vector<SlotState>& slots);

/// Reads and validates a lease file (magic, size, table hash) without
/// taking any lease. Throws std::runtime_error naming the path when the
/// file is missing, is not a lease file or is damaged.
std::vector<SlotState> inspect_leases(const std::string& path);

/// True when `path` starts with the lease-file magic.
bool is_lease_file(const std::string& path);

class LeaseFile {
 public:
  /// Opens (creating or re-initializing a torn file) the lease file for
  /// the table whose canonical items are `keys`. Throws naming the path
  /// when the file belongs to another table or is not a lease file.
  LeaseFile(std::string path, const std::vector<std::string>& keys);
  ~LeaseFile();
  LeaseFile(const LeaseFile&) = delete;
  LeaseFile& operator=(const LeaseFile&) = delete;

  enum class Claim { kWon, kHeld, kDone };

  /// Tries to lease item `index`. On kWon the lease is held and
  /// `*prior_claims` is the number of earlier claims that never
  /// finished; on kHeld another open file description holds it; kDone
  /// means the item is finished (nothing is held).
  Claim try_claim(std::size_t index, std::uint32_t* prior_claims);

  /// Marks the held item `index` done and releases its lease. Call only
  /// after the item's result is durable. A lease that is never finished
  /// is released when the LeaseFile (or its process) goes away.
  void finish(std::size_t index);

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace bd::shard
