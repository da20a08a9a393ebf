// The serve daemon's socket layer, now the program's only one: every
// socket the daemon listens on or a client connects, AF_UNIX and TCP
// alike, is created, bound, listened on or connected here, and every byte
// is sent and received here (bdlint's no-raw-socket rule keeps those
// syscalls out of the rest of src/, examples/ and bench/). The two address
// families differ only in the address and a few family-specific steps:
// TCP sets SO_REUSEADDR, reads back a kernel-picked port and sets
// TCP_NODELAY; a Unix listener checks what is already at its path.
//
// Every byte the daemon or a client moves over a socket goes through this
// layer, which owns the three invariants the transports must never violate:
//
//   1. No SIGPIPE, ever. A peer that dies mid-write turns into an EPIPE
//      return, not a process-killing signal: send_all() passes MSG_NOSIGNAL
//      on every send(2) and loops over EINTR and short writes the way
//      robust's journal appends do.
//   2. Every blocking I/O step has a deadline. connect(), recv_ready() and
//      send_all() poll with the caller's budget, so a slow, stalled or
//      unreachable peer (slowloris) costs one connection slot for a
//      bounded time, never a thread forever.
//   3. Buffers are bounded. LineFramer reassembles newline-delimited frames
//      from arbitrary chunkings (byte-at-a-time, split at any boundary,
//      several frames in one read) but refuses to buffer a line beyond its
//      limit, which rides Protocol::kMaxRequestBytes.
//
// Deterministic network faults (robust::FaultInjector specs) fire inside
// this layer so every transport failure mode is reproducible in tests:
// `short_write@n` degrades the n-th send_all() to one-byte syscalls (the
// loop must reassemble), `accept_fail@n` fails the n-th accept, and the
// client-side `conn_reset@n` / `slow_peer@n` live in serve/client.cpp.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace bd::serve::net {

/// Outcome of one I/O step. kReset covers ECONNRESET/EPIPE — the peer is
/// gone; kTimeout means the deadline expired with the fd not ready.
enum class IoStatus { kOk, kClosed, kTimeout, kReset, kError };
const char* io_status_name(IoStatus status);

/// Sends all `len` bytes with MSG_NOSIGNAL, looping over EINTR, EAGAIN and
/// short writes; blocks at most `deadline_seconds` total (<= 0: no bound).
/// Returns kOk only when every byte is out. `err` (optional) receives the
/// errno of a kReset/kError outcome.
IoStatus send_all(int fd, const char* data, std::size_t len,
                  double deadline_seconds, int* err = nullptr);
IoStatus send_all(int fd, const std::string& data, double deadline_seconds,
                  int* err = nullptr);

/// Waits up to `deadline_seconds` for `fd` to become readable (<= 0: no
/// bound). kOk means readable (possibly EOF — the recv decides).
IoStatus recv_ready(int fd, double deadline_seconds);

/// One deadline-bounded recv of at most `max_chunk` bytes appended to
/// `out`. kClosed on orderly EOF, kReset on ECONNRESET, kTimeout when the
/// peer sent nothing within the budget.
IoStatus recv_some(int fd, std::string& out, std::size_t max_chunk,
                   double deadline_seconds, int* err = nullptr);

/// Reassembles newline-delimited frames from adversarial chunk delivery.
/// append() buffers bytes; next() yields complete lines (without the '\n',
/// tolerating a trailing '\r') in arrival order. A partial line growing
/// past `max_line` trips overflowed() — the caller answers with the
/// structured oversized error and drops the connection, bounding the
/// memory any client can pin.
class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line) : max_line_(max_line) {}

  /// False (and overflowed() latches) when the unterminated tail would
  /// exceed max_line. Complete lines already in `data` are still yielded.
  bool append(const char* data, std::size_t n);

  /// Pops the next complete line; false when none is buffered. Empty
  /// lines are skipped (keep-alive newlines are legal NDJSON padding).
  bool next(std::string& line);

  bool overflowed() const { return overflowed_; }
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::size_t max_line_;
  std::string buffer_;
  bool overflowed_ = false;
};

/// Where a daemon listens or a client connects: a filesystem socket
/// (AF_UNIX) when `path` is set, otherwise an IPv4 `host:port`. Hosts are
/// dotted quads or "localhost"; the wildcard spellings "", "*" and
/// "0.0.0.0" listen on any address and connect to loopback. No DNS: the
/// daemon fronts a trusted LAN or loopback, and a resolver would buy
/// latency and nondeterminism for nothing.
struct Endpoint {
  std::string path;        // AF_UNIX socket file
  std::string host;        // AF_INET
  std::uint16_t port = 0;  // AF_INET; 0 lets a listener's kernel pick
};

inline Endpoint unix_endpoint(std::string path) {
  Endpoint endpoint;
  endpoint.path = std::move(path);
  return endpoint;
}

/// Parses "host:port" (also ":port" and bare "port") into a TCP endpoint.
/// False with `error` set on a malformed spec; port 0 is legal here (for
/// listeners), connect() callers must name a real port.
bool parse_endpoint(const std::string& spec, Endpoint& out,
                    std::string& error);

/// A listening socket, open from listen() until destroyed. A Unix listener
/// removes its socket file when destroyed, but only while the path still
/// names the socket it bound: a file someone put there since stays.
class Listener {
 public:
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&&) = delete;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  int fd() const { return fd_; }
  /// The endpoint bound; a requested TCP port of 0 reads as the port the
  /// kernel picked.
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  friend Listener listen(const Endpoint& endpoint);
  Listener(int fd, Endpoint endpoint)
      : fd_(fd), endpoint_(std::move(endpoint)) {}

  int fd_ = -1;
  Endpoint endpoint_;
  // The Unix socket file this listener bound, by device and inode.
  bool owns_path_ = false;
  dev_t dev_ = 0;
  ino_t ino_ = 0;
};

/// Binds and listens on `endpoint`; throws std::runtime_error naming it.
/// On a Unix path, only a stale socket file (one that refuses connections,
/// as a killed daemon leaves it) is replaced: a live daemon's socket or
/// any other file at the path fails the listen and stays untouched.
Listener listen(const Endpoint& endpoint);

/// Connects to `endpoint` within `timeout_seconds` (<= 0: no bound) with a
/// non-blocking connect + poll, so an unreachable host costs the budget,
/// not the kernel's multi-minute SYN retry default. Returns a blocking-mode
/// fd, or -1 with `error` set.
int connect(const Endpoint& endpoint, double timeout_seconds,
            std::string& error);

}  // namespace bd::serve::net
