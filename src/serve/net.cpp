#include "serve/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "robust/fault_injector.h"

namespace bd::serve::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining budget in whole milliseconds for poll(2); -1 = unbounded,
/// 0 = already expired (poll returns immediately).
int remaining_ms(double deadline_seconds, Clock::time_point start) {
  if (deadline_seconds <= 0.0) return -1;
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  const double left = deadline_seconds - elapsed.count();
  if (left <= 0.0) return 0;
  const double ms = left * 1000.0;
  return ms > 2147483000.0 ? 2147483000 : static_cast<int>(ms) + 1;
}

IoStatus wait_for(int fd, short events, double deadline_seconds,
                  Clock::time_point start) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int timeout = remaining_ms(deadline_seconds, start);
    const int n = ::poll(&pfd, 1, timeout);
    if (n > 0) return IoStatus::kOk;  // ready (or HUP/ERR — the I/O decides)
    if (n == 0) return IoStatus::kTimeout;
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
}

bool is_reset(int err) {
  return err == ECONNRESET || err == EPIPE || err == ECONNABORTED;
}

/// The socket address an endpoint names.
struct Address {
  sockaddr_storage storage{};
  socklen_t len = 0;

  int family() const { return storage.ss_family; }
  const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

/// `for_listen` maps the wildcard host spellings to INADDR_ANY; a connect
/// maps them to loopback.
bool resolve_host(const std::string& host, bool for_listen, in_addr& out,
                  std::string& error) {
  if (host.empty() || host == "*" || host == "0.0.0.0") {
    out.s_addr = htonl(for_listen ? INADDR_ANY : INADDR_LOOPBACK);
    return true;
  }
  if (host == "localhost") {
    out.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  if (::inet_pton(AF_INET, host.c_str(), &out) == 1) return true;
  error = "bad host '" + host + "' (use a dotted quad or 'localhost')";
  return false;
}

bool resolve(const Endpoint& endpoint, bool for_listen, Address& out,
             std::string& error) {
  if (!endpoint.path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.path.size() >= sizeof(addr.sun_path)) {
      error = "socket path too long: " + endpoint.path;
      return false;
    }
    std::memcpy(addr.sun_path, endpoint.path.data(), endpoint.path.size());
    std::memcpy(&out.storage, &addr, sizeof(addr));
    out.len = sizeof(addr);
    return true;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (!resolve_host(endpoint.host, for_listen, addr.sin_addr, error)) {
    return false;
  }
  std::memcpy(&out.storage, &addr, sizeof(addr));
  out.len = sizeof(addr);
  return true;
}

/// The endpoint as the user spelled it, for errors.
std::string where(const Endpoint& endpoint) {
  if (!endpoint.path.empty()) return endpoint.path;
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

/// A stream socket for `address`'s family; -1 with `err` set.
int open_socket(const Address& address, int& err) {
  const int fd = ::socket(address.family(), SOCK_STREAM, 0);
  if (fd < 0) err = errno;
  return fd;
}

/// connect() behind the endpoint: a blocking-mode fd, or -1 with `err` set
/// (ETIMEDOUT when the budget ran out).
int connect_address(const Address& address, double timeout_seconds,
                    int& err) {
  const auto start = Clock::now();
  const int fd = open_socket(address, err);
  if (fd < 0) return -1;
  const auto fail = [fd, &err](int code) {
    err = code;
    ::close(fd);
    return -1;
  };
  if (!set_nonblocking(fd, true)) return fail(errno);
  if (::connect(fd, address.get(), address.len) != 0) {
    // AF_UNIX fails at once (a full backlog is EAGAIN); TCP goes on in
    // the background until the socket turns writable.
    if (errno != EINPROGRESS) return fail(errno);
    const IoStatus ready = wait_for(fd, POLLOUT, timeout_seconds, start);
    if (ready == IoStatus::kTimeout) return fail(ETIMEDOUT);
    if (ready != IoStatus::kOk) return fail(errno);
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
      return fail(errno);
    }
    if (soerr != 0) return fail(soerr);
  }
  if (!set_nonblocking(fd, false)) return fail(errno);
  return fd;
}

/// Clears the way for a Unix listener at `path`. Only a stale socket file,
/// one that refuses a connect, is removed; anything else throws.
void remove_stale_socket(const std::string& path, const Address& address) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return;
    throw std::runtime_error("cannot listen on " + path + ": " +
                             std::strerror(errno));
  }
  if (!S_ISSOCK(st.st_mode)) {
    throw std::runtime_error("cannot listen on " + path +
                             ": it exists and is not a socket");
  }
  int err = 0;
  const int probe = connect_address(address, 1.0, err);
  if (probe >= 0) {
    ::close(probe);
    throw std::runtime_error("a daemon is already listening on " + path);
  }
  if (err != ECONNREFUSED) {
    throw std::runtime_error("cannot listen on " + path +
                             ": the socket there did not refuse a connect (" +
                             std::strerror(err) + ")");
  }
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    throw std::runtime_error("cannot remove stale socket " + path + ": " +
                             std::strerror(errno));
  }
}

}  // namespace

const char* io_status_name(IoStatus status) {
  switch (status) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kClosed: return "closed";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kReset: return "reset";
    case IoStatus::kError: return "error";
  }
  return "unknown";
}

IoStatus send_all(int fd, const char* data, std::size_t len,
                  double deadline_seconds, int* err) {
  const auto start = Clock::now();
  // Armed short_write fault: degrade this whole call to one-byte syscalls
  // so the partial-write loop below is what delivers the payload.
  const bool one_byte =
      robust::FaultInjector::instance().fire(robust::FaultKind::kShortWrite);
  const std::size_t max_chunk = one_byte ? 1 : len;
  std::size_t sent = 0;
  while (sent < len) {
    const std::size_t chunk =
        len - sent < max_chunk ? len - sent : max_chunk;
    const ssize_t n = ::send(fd, data + sent, chunk, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const IoStatus ready = wait_for(fd, POLLOUT, deadline_seconds, start);
      if (ready != IoStatus::kOk) return ready;
      continue;
    }
    if (err != nullptr) *err = errno;
    return is_reset(errno) ? IoStatus::kReset : IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus send_all(int fd, const std::string& data, double deadline_seconds,
                  int* err) {
  return send_all(fd, data.data(), data.size(), deadline_seconds, err);
}

IoStatus recv_ready(int fd, double deadline_seconds) {
  return wait_for(fd, POLLIN, deadline_seconds, Clock::now());
}

IoStatus recv_some(int fd, std::string& out, std::size_t max_chunk,
                   double deadline_seconds, int* err) {
  const auto start = Clock::now();
  const IoStatus ready = wait_for(fd, POLLIN, deadline_seconds, start);
  if (ready != IoStatus::kOk) return ready;
  char chunk[4096];
  const std::size_t want =
      max_chunk < sizeof(chunk) ? max_chunk : sizeof(chunk);
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, want, 0);
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // poll said readable but the kernel changed its mind (spurious
      // wakeup); re-arm with the remaining budget.
      const IoStatus again = wait_for(fd, POLLIN, deadline_seconds, start);
      if (again != IoStatus::kOk) return again;
      continue;
    }
    if (err != nullptr) *err = errno;
    return is_reset(errno) ? IoStatus::kReset : IoStatus::kError;
  }
}

bool LineFramer::append(const char* data, std::size_t n) {
  buffer_.append(data, n);
  // Only the unterminated tail counts against the bound: a burst of
  // complete pipelined frames may legitimately exceed one line's limit.
  const std::size_t last_newline = buffer_.rfind('\n');
  const std::size_t tail = last_newline == std::string::npos
                               ? buffer_.size()
                               : buffer_.size() - last_newline - 1;
  if (tail > max_line_) overflowed_ = true;
  return !overflowed_;
}

bool LineFramer::next(std::string& line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline == std::string::npos) return false;
    line.assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // bare keep-alive newline
    return true;
  }
}

bool parse_endpoint(const std::string& spec, Endpoint& out,
                    std::string& error) {
  std::string host;
  std::string port_text;
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    port_text = spec;  // bare "port"
  } else {
    host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  if (port_text.empty()) {
    error = "bad endpoint '" + spec + "': missing port";
    return false;
  }
  long port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      error = "bad endpoint '" + spec + "': port is not a number";
      return false;
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      error = "bad endpoint '" + spec + "': port out of range";
      return false;
    }
  }
  // Validate the host spelling eagerly so `bdctl serve --listen garbage:1`
  // fails at flag parse, not at bind.
  in_addr probe{};
  if (!resolve_host(host, /*for_listen=*/true, probe, error)) return false;
  out = Endpoint();
  out.host = host;
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      endpoint_(std::move(other.endpoint_)),
      owns_path_(other.owns_path_),
      dev_(other.dev_),
      ino_(other.ino_) {
  other.fd_ = -1;
  other.owns_path_ = false;
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  struct stat st {};
  if (owns_path_ && ::lstat(endpoint_.path.c_str(), &st) == 0 &&
      st.st_dev == dev_ && st.st_ino == ino_) {
    ::unlink(endpoint_.path.c_str());
  }
}

Listener listen(const Endpoint& endpoint) {
  Address address;
  std::string error;
  if (!resolve(endpoint, /*for_listen=*/true, address, error)) {
    throw std::runtime_error(error);
  }
  const bool tcp = endpoint.path.empty();
  if (!tcp) remove_stale_socket(endpoint.path, address);
  int err = 0;
  const int fd = open_socket(address, err);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(err));
  }
  Listener listener(fd, endpoint);  // closes fd on every throw below
  if (tcp) {
    const int one = 1;
    // Restart-after-drain must not lose the address to TIME_WAIT.
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, address.get(), address.len) != 0) {
    throw std::runtime_error("bind(" + where(endpoint) +
                             "): " + std::strerror(errno));
  }
  if (!tcp) {
    struct stat st {};
    if (::lstat(endpoint.path.c_str(), &st) == 0) {
      listener.owns_path_ = true;
      listener.dev_ = st.st_dev;
      listener.ino_ = st.st_ino;
    }
  }
  if (::listen(fd, 64) != 0) {
    throw std::runtime_error("listen(" + where(endpoint) +
                             "): " + std::strerror(errno));
  }
  if (tcp && endpoint.port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      throw std::runtime_error(std::string("getsockname(): ") +
                               std::strerror(errno));
    }
    listener.endpoint_.port = ntohs(bound.sin_port);
  }
  return listener;
}

int connect(const Endpoint& endpoint, double timeout_seconds,
            std::string& error) {
  Address address;
  if (!resolve(endpoint, /*for_listen=*/false, address, error)) return -1;
  int err = 0;
  const int fd = connect_address(address, timeout_seconds, err);
  if (fd < 0) {
    error = "connect(" + where(endpoint) + "): " +
            (err == ETIMEDOUT ? std::string("timed out")
                              : std::string(std::strerror(err)) +
                                    " (is the daemon running?)");
    return -1;
  }
  if (endpoint.path.empty()) {
    const int one = 1;
    // Request/response protocol: latency beats Nagle batching.
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace bd::serve::net
