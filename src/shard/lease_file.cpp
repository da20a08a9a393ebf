#include "shard/lease_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "robust/journal.h"

namespace bd::shard {

namespace {

constexpr char kMagic[8] = {'B', 'D', 'L', 'E', 'A', 'S', 'E', 'S'};
constexpr std::uint32_t kVersion = 1;

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t cells;
  std::uint64_t table_hash;
};

struct Slot {
  std::uint64_t key_hash;
  std::uint32_t claims;
  std::uint32_t done;
};

static_assert(sizeof(Header) == 32 && sizeof(Slot) == 16,
              "the lease file layout is fixed");

off_t slot_offset(std::size_t index) {
  return static_cast<off_t>(sizeof(Header) + index * sizeof(Slot));
}

std::uint64_t table_hash(const std::vector<Slot>& slots) {
  std::vector<std::uint64_t> hashes;
  for (const Slot& s : slots) hashes.push_back(s.key_hash);
  return robust::stable_hash(
      std::string_view(reinterpret_cast<const char*>(hashes.data()),
                       hashes.size() * sizeof(std::uint64_t)));
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("lease file '" + path + "': " + what);
}

/// Fails naming `path` unless a pread/pwrite moved all `want` bytes.
void check_io(ssize_t got, std::size_t want, const std::string& path,
              const char* op) {
  if (got == static_cast<ssize_t>(want)) return;
  fail(path, std::string(op) + " failed: " +
                 (got < 0 ? std::strerror(errno) : "short transfer"));
}

/// Closes the descriptor at scope exit unless it was handed over.
struct Fd {
  explicit Fd(int descriptor) : fd(descriptor) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  int fd;
};

/// One F_OFD_* request on bytes [start, start + len); `*out` receives
/// the kernel's answer (F_OFD_GETLK). Returns false with errno set when
/// the kernel refuses it.
bool ofd_lock(int fd, int cmd, short type, off_t start, off_t len,
              struct ::flock* out = nullptr) {
  struct ::flock lk {};
  lk.l_type = type;
  lk.l_whence = SEEK_SET;
  lk.l_start = start;
  lk.l_len = len;
  int rc;
  do {
    rc = ::fcntl(fd, cmd, &lk);
  } while (rc < 0 && errno == EINTR);
  if (out != nullptr) *out = lk;
  return rc == 0;
}

/// Reads the header and every slot. Returns false when the file holds no
/// header yet (empty, or its creator died before writing it): every byte
/// of the header range is zero. Throws when it is not a lease file or
/// its slots disagree with its header.
bool read_table(int fd, const std::string& path, Header& header,
                std::vector<Slot>& slots) {
  header = Header{};
  const ssize_t got = ::pread(fd, &header, sizeof(header), 0);
  if (got < 0) fail(path, std::string("read failed: ") + std::strerror(errno));
  const auto* bytes = reinterpret_cast<const unsigned char*>(&header);
  if (std::all_of(bytes, bytes + got, [](unsigned char b) { return b == 0; })) {
    return false;
  }
  if (got != static_cast<ssize_t>(sizeof(header)) ||
      std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0 ||
      header.version != kVersion) {
    fail(path, "not a lease file (of version " + std::to_string(kVersion) +
                   ")");
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0 || header.cells > static_cast<std::uint64_t>(end) ||
      static_cast<std::uint64_t>(end) !=
          sizeof(Header) + header.cells * sizeof(Slot)) {
    fail(path, "damaged: " + std::to_string(end) + " bytes for a header of " +
                   std::to_string(header.cells) + " cells");
  }
  slots.resize(header.cells);
  const std::size_t size = slots.size() * sizeof(Slot);
  check_io(::pread(fd, slots.data(), size, slot_offset(0)), size, path,
           "slot read");
  if (table_hash(slots) != header.table_hash) {
    fail(path, "damaged: the slot key hashes do not match the header");
  }
  return true;
}

}  // namespace

LeaseSummary summarize(const std::vector<SlotState>& slots) {
  LeaseSummary s;
  s.cells = slots.size();
  for (const SlotState& slot : slots) {
    if (slot.done) ++s.done;
    if (slot.claims > 1) s.steals += slot.claims - 1;
    if (slot.held) {
      ++s.live;
    } else if (slot.claims > 0 && !slot.done) {
      ++s.orphaned;
    }
  }
  return s;
}

std::vector<SlotState> inspect_leases(const std::string& path) {
  const Fd file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.fd < 0) {
    fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  Header header{};
  std::vector<Slot> slots;
  if (!read_table(file.fd, path, header, slots)) {
    fail(path, "not initialized (its creator died before the header)");
  }
  std::vector<SlotState> out;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    // A read-lock probe conflicts with any worker's write lease.
    struct ::flock probe {};
    if (!ofd_lock(file.fd, F_OFD_GETLK, F_RDLCK, slot_offset(i), sizeof(Slot),
                  &probe)) {
      fail(path, std::string("lock probe failed: ") + std::strerror(errno));
    }
    out.push_back({slots[i].key_hash, slots[i].claims, slots[i].done != 0,
                   probe.l_type != F_UNLCK});
  }
  return out;
}

bool is_lease_file(const std::string& path) {
  const Fd file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  char magic[sizeof(kMagic)] = {};
  return file.fd >= 0 &&
         ::pread(file.fd, magic, sizeof(magic), 0) ==
             static_cast<ssize_t>(sizeof(magic)) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

LeaseFile::LeaseFile(std::string path, const std::vector<std::string>& keys)
    : path_(std::move(path)) {
  std::vector<Slot> fresh;  // the table as a new file holds it
  for (const std::string& key : keys) {
    fresh.push_back({robust::stable_hash(key), 0, 0});
  }
  Fd file{::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)};
  if (file.fd < 0) {
    fail(path_, std::string("cannot open: ") + std::strerror(errno));
  }
  // The header lock serializes creation and validation; a creator that
  // dies holding it drops it with its descriptor.
  if (!ofd_lock(file.fd, F_OFD_SETLKW, F_WRLCK, 0, sizeof(Header))) {
    fail(path_, std::string("header lock failed: ") + std::strerror(errno));
  }
  const std::uint64_t want = table_hash(fresh);
  Header header{};
  std::vector<Slot> slots;
  if (read_table(file.fd, path_, header, slots)) {
    if (header.cells != fresh.size() || header.table_hash != want) {
      char what[160];
      std::snprintf(what, sizeof(what),
                    "belongs to another table (%llu cells, table hash %016llx;"
                    " this run has %zu cells, table hash %016llx)",
                    static_cast<unsigned long long>(header.cells),
                    static_cast<unsigned long long>(header.table_hash),
                    fresh.size(), static_cast<unsigned long long>(want));
      fail(path_, what);
    }
  } else {
    // New or torn: slots first, header last, so a header on disk always
    // describes complete slots.
    const std::size_t size = fresh.size() * sizeof(Slot);
    check_io(::pwrite(file.fd, fresh.data(), size, slot_offset(0)), size,
             path_, "slot write");
    if (::ftruncate(file.fd, slot_offset(fresh.size())) != 0) {
      fail(path_, std::string("truncate failed: ") + std::strerror(errno));
    }
    header = Header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.cells = fresh.size();
    header.table_hash = want;
    check_io(::pwrite(file.fd, &header, sizeof(header), 0), sizeof(header),
             path_, "header write");
  }
  ofd_lock(file.fd, F_OFD_SETLK, F_UNLCK, 0, sizeof(Header));
  fd_ = std::exchange(file.fd, -1);
}

LeaseFile::~LeaseFile() {
  if (fd_ >= 0) ::close(fd_);  // drops every lease this file holds
}

LeaseFile::Claim LeaseFile::try_claim(std::size_t index,
                                      std::uint32_t* prior_claims) {
  const off_t offset = slot_offset(index);
  if (!ofd_lock(fd_, F_OFD_SETLK, F_WRLCK, offset, sizeof(Slot))) {
    if (errno == EAGAIN || errno == EACCES) return Claim::kHeld;
    fail(path_, std::string("lock failed: ") + std::strerror(errno));
  }
  Slot slot{};
  check_io(::pread(fd_, &slot, sizeof(slot), offset), sizeof(slot), path_,
           "slot read");
  if (slot.done != 0) {
    ofd_lock(fd_, F_OFD_SETLK, F_UNLCK, offset, sizeof(Slot));
    return Claim::kDone;
  }
  *prior_claims = slot.claims;
  ++slot.claims;
  check_io(::pwrite(fd_, &slot, sizeof(slot), offset), sizeof(slot), path_,
           "slot write");
  return Claim::kWon;
}

void LeaseFile::finish(std::size_t index) {
  const off_t offset = slot_offset(index);
  const std::uint32_t done = 1;
  check_io(::pwrite(fd_, &done, sizeof(done),
                    offset + static_cast<off_t>(offsetof(Slot, done))),
           sizeof(done), path_, "slot write");
  ofd_lock(fd_, F_OFD_SETLK, F_UNLCK, offset, sizeof(Slot));
}

}  // namespace bd::shard
