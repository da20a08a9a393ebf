#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "serve/net.h"
#include "util/logging.h"

namespace bd::serve {

namespace {

/// Write end of the running server's wake pipe, published for the signal
/// handler. One daemon per process installs handlers (bdctl serve), so a
/// single slot suffices; -1 means no handler is active.
std::atomic<int> g_signal_wake_fd{-1};

void handle_stop_signal(int /*signo*/) {
  // Async-signal-safe: one lock-free load + one write(2). The byte value
  // tells the poll loop this wake is a signal (drain), not request_stop.
  const int fd = g_signal_wake_fd.load();
  if (fd >= 0) {
    const char byte = 'S';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void set_cloexec(int fd) { (void)::fcntl(fd, F_SETFD, FD_CLOEXEC); }

}  // namespace

SocketServer::SocketServer(const ServerConfig& config)
    : config_(config), service_(config.service), protocol_(service_) {
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe(): ") + std::strerror(errno));
  }
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);
  // The signal handler must never block on a full pipe.
  const int flags = ::fcntl(wake_pipe_[1], F_GETFL, 0);
  (void)::fcntl(wake_pipe_[1], F_SETFL, flags | O_NONBLOCK);
}

SocketServer::~SocketServer() {
  request_stop();
  interrupt_connections();
  reap_connections(/*join_all=*/true);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void SocketServer::wake() {
  const int fd = wake_pipe_[1];
  if (fd < 0) return;
  const char byte = 'W';
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

void SocketServer::request_stop(StopMode mode) {
  bool expected = false;
  if (stop_.compare_exchange_strong(expected, true)) {
    stop_mode_.store(static_cast<int>(mode));  // first stop wins the mode
  }
  wake();
}

void SocketServer::listen() {
  if (config_.socket_path.empty() && config_.listen_address.empty()) {
    throw std::runtime_error(
        "serve: no transport configured (need a socket path or --listen)");
  }
  listened_ = true;
  // One listener per configured endpoint, all polled by one accept loop.
  std::vector<net::Listener> listeners;
  if (!config_.socket_path.empty()) {
    listeners.push_back(net::listen(net::unix_endpoint(config_.socket_path)));
  }
  if (!config_.listen_address.empty()) {
    net::Endpoint endpoint;
    std::string error;
    if (!net::parse_endpoint(config_.listen_address, endpoint, error)) {
      throw std::runtime_error(error);
    }
    listeners.push_back(net::listen(endpoint));
    tcp_port_.store(listeners.back().endpoint().port);
  }
  listeners_ = std::move(listeners);
}

void SocketServer::run() {
  if (!listened_) listen();

  struct sigaction old_term {};
  struct sigaction old_int {};
  bool signals_installed = false;
  if (config_.install_signal_handlers) {
    g_signal_wake_fd.store(wake_pipe_[1]);
    struct sigaction sa {};
    sa.sa_handler = handle_stop_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);
    signals_installed = true;
  }

  service_.start();
  std::vector<pollfd> pfds(1 + listeners_.size());
  pfds[0].fd = wake_pipe_[0];
  pfds[0].events = POLLIN;
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    const net::Endpoint& endpoint = listeners_[i].endpoint();
    BD_LOG(Info) << "serve: listening on "
                 << (endpoint.path.empty()
                         ? "tcp port " + std::to_string(endpoint.port)
                         : endpoint.path);
    pfds[i + 1].fd = listeners_[i].fd();
    pfds[i + 1].events = POLLIN;
  }

  while (!stop_.load()) {
    const int n = ::poll(pfds.data(), pfds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      BD_LOG(Warn) << "serve: poll(): " << std::strerror(errno);
      break;
    }
    if (pfds[0].revents != 0) {
      char buf[64];
      const ssize_t got = ::read(wake_pipe_[0], buf, sizeof(buf));
      for (ssize_t i = 0; i < got; ++i) {
        if (buf[i] == 'S') request_stop(StopMode::kDrain);  // signal
      }
    }
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if (pfds[i + 1].revents != 0 && !stop_.load()) {
        accept_on(pfds[i + 1].fd,
                  listeners_[i].endpoint().path.empty() ? "tcp" : "unix");
      }
    }
    reap_connections(/*join_all=*/false);
  }

  // Stop accepting first (closing a Unix listener also removes its socket
  // file), then cut connection reads (responses in flight still go out)
  // and join the connection threads so every accepted request has either
  // been answered or abandoned before the service winds down its workers.
  listeners_.clear();
  interrupt_connections();
  reap_connections(/*join_all=*/true);

  const auto mode = static_cast<StopMode>(stop_mode_.load());
  service_.stop(mode);

  if (signals_installed) {
    g_signal_wake_fd.store(-1);
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
  }
  BD_LOG(Info) << "serve: shut down cleanly ("
               << (mode == StopMode::kDrain ? "drained" : "abandoned queue")
               << ")";
}

void SocketServer::accept_on(int listener_fd, const char* transport) {
  const int conn = ::accept(listener_fd, nullptr, nullptr);
  if (conn < 0) return;  // transient (EINTR/ECONNABORTED): poll re-arms
  if (robust::FaultInjector::instance().fire(
          robust::FaultKind::kAcceptFail)) {
    BD_LOG(Warn) << "fault injector: dropping accepted " << transport
                 << " connection";
    BD_OBS_COUNT("serve.conn.accept_fail", 1);
    ::close(conn);
    return;
  }
  if (active_connections_.load() >= config_.max_connections) {
    BD_OBS_COUNT("serve.conn.shed", 1);
    // Best-effort structured refusal with a tight cap so a zombie peer
    // cannot stall the accept loop; then close. Clients treat
    // `overloaded` as retryable and back off.
    net::send_all(conn,
                  protocol_error("overloaded",
                                 "connection cap (" +
                                     std::to_string(config_.max_connections) +
                                     ") reached; retry with backoff") +
                      "\n",
                  1.0);
    ::close(conn);
    return;
  }
  BD_OBS_COUNT("serve.conn.accepted", 1);
  const std::size_t active = active_connections_.fetch_add(1) + 1;
  BD_OBS_GAUGE("serve.conn.active", active);
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::lock_guard lock(threads_mutex_);
  Connection c;
  c.fd = conn;
  c.done = done;
  c.thread = std::thread([this, conn, transport, done] {
    serve_connection(conn, transport, done);
  });
  connections_.push_back(std::move(c));
}

void SocketServer::serve_connection(int fd, const char* transport,
                                    std::shared_ptr<std::atomic<bool>> done) {
  BD_OBS_SPAN("serve.conn");
  net::LineFramer framer(Protocol::kMaxRequestBytes);
  std::string line;
  bool open = true;
  while (open && !stop_.load()) {
    std::string data;
    const net::IoStatus status =
        net::recv_some(fd, data, 4096, config_.read_deadline_seconds);
    if (status == net::IoStatus::kTimeout) {
      BD_OBS_COUNT("serve.conn.read_timeout", 1);
      BD_LOG(Warn) << "serve: dropping idle/slow " << transport
                   << " connection (read deadline)";
      // Best-effort notice; the slow peer may never read it.
      net::send_all(fd,
                    protocol_error("timeout",
                                   "no complete request within the read "
                                   "deadline") +
                        "\n",
                    1.0);
      break;
    }
    if (status == net::IoStatus::kReset) {
      BD_OBS_COUNT("serve.conn.reset", 1);
      break;
    }
    if (status != net::IoStatus::kOk) break;  // orderly EOF or hard error
    if (!framer.append(data.data(), data.size())) {
      // Bound the memory a newline-less client can pin: answer with the
      // structured error and drop the connection.
      net::send_all(fd,
                    protocol_error("oversized_request",
                                   "request line exceeds " +
                                       std::to_string(
                                           Protocol::kMaxRequestBytes) +
                                       " bytes") +
                        "\n",
                    config_.write_deadline_seconds);
      break;
    }
    while (framer.next(line)) {
      const ProtocolResult result = protocol_.handle_line(line);
      const net::IoStatus wrote = net::send_all(
          fd, result.response + "\n", config_.write_deadline_seconds);
      if (wrote != net::IoStatus::kOk) {
        if (wrote == net::IoStatus::kReset) {
          BD_OBS_COUNT("serve.conn.reset", 1);
        } else if (wrote == net::IoStatus::kTimeout) {
          BD_OBS_COUNT("serve.conn.write_timeout", 1);
        }
        open = false;
        break;
      }
      if (result.shutdown) {
        request_stop(result.drain ? StopMode::kDrain : StopMode::kAbandon);
        open = false;
        break;
      }
    }
  }
  // The fd stays open (the Connection owns it) so a stopping server can
  // shutdown(2) it without racing fd reuse; reap_connections closes it.
  active_connections_.fetch_sub(1);
  done->store(true);
  wake();  // let the accept loop reap this thread promptly
}

void SocketServer::interrupt_connections() {
  std::lock_guard lock(threads_mutex_);
  for (auto& c : connections_) {
    // SHUT_RD only: blocked reads wake with EOF, responses in flight
    // still reach the peer.
    ::shutdown(c.fd, SHUT_RD);
  }
}

void SocketServer::reap_connections(bool join_all) {
  std::vector<Connection> finished;
  {
    std::lock_guard lock(threads_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (join_all || it->done->load()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& c : finished) {
    if (c.thread.joinable()) c.thread.join();
    if (c.fd >= 0) ::close(c.fd);
  }
}

}  // namespace bd::serve
