// Socket transports for the serve protocol: AF_UNIX and TCP in front of
// the same Protocol::handle_line.
//
// The daemon listens on a filesystem socket, a TCP endpoint, or both; each
// accepted connection is served by its own thread speaking newline-
// delimited JSON (one request line in, one response line out, connection
// stays open for more). The connection lifecycle is hardened end to end:
//
//   accept → [cap check: shed with `overloaded`] → serve loop
//     serve: read (deadline) → frame (bounded) → handle → write (deadline)
//   exit on: EOF | reset | deadline | oversized | shutdown | server stop
//
// Reads and writes each carry a per-connection deadline so a slowloris
// peer costs one slot for a bounded time; all writes go through
// net::send_all (MSG_NOSIGNAL + partial-write looping), so a peer dying
// mid-response can never SIGPIPE the daemon. Past `max_connections`
// concurrent clients, new connections get a best-effort structured
// `overloaded` error and an immediate close — clients back off and retry
// rather than hang.
//
// Shutdown has two modes. A drain (`{"op":"shutdown"}`, SIGTERM, or
// request_stop(StopMode::kDrain)) stops accepting, finishes every queued
// job through the workers, then exits. An abandon
// (`{"op":"shutdown","drain":false}`) stops the workers after their
// current job and leaves queued jobs journaled as `queued`, so the next
// incarnation reports exactly the states a crash would have left.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/ordered_mutex.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace bd::serve {

struct ServerConfig {
  /// AF_UNIX listener path ("" disables the Unix transport).
  std::string socket_path = "bdserve.sock";
  /// TCP listener endpoint "host:port" ("" disables TCP; port 0 binds an
  /// ephemeral port, readable via tcp_port()).
  std::string listen_address;
  /// Hard cap on concurrent connections; excess connections are shed
  /// with a structured `overloaded` error.
  std::size_t max_connections = 64;
  /// Per-connection I/O deadlines (seconds; <= 0 disables the bound).
  /// The read deadline doubles as the idle keep-alive limit.
  double read_deadline_seconds = 30.0;
  double write_deadline_seconds = 30.0;
  /// Install SIGTERM/SIGINT handlers that trigger a graceful drain.
  /// bdctl serve enables this; in-process tests leave it off.
  bool install_signal_handlers = false;
  ServiceConfig service;
};

class SocketServer {
 public:
  explicit SocketServer(const ServerConfig& config);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds the configured listeners. Throws std::runtime_error when no
  /// transport is configured or a listener cannot be bound. Call at most
  /// once, before run(); a caller that reports the daemon as serving
  /// does so after this returns.
  void listen();

  /// Binds the listeners unless listen() already did, starts the worker
  /// pool and serves until a client sends {"op":"shutdown"}, a handled
  /// signal arrives, or request_stop() is called. Returns after
  /// outstanding work is wound down per the stop mode and all threads
  /// are joined.
  void run();

  /// Asks a running run() to stop accepting and wind down (thread-safe,
  /// async-signal-unsafe — signals go through the internal self-pipe).
  void request_stop(StopMode mode = StopMode::kDrain);

  /// The TCP port actually bound (resolves a requested port of 0);
  /// 0 until listen() has opened the TCP listener or when TCP is disabled.
  std::uint16_t tcp_port() const { return tcp_port_.load(); }

  /// The service behind the transports (restart inspection, tests).
  SanitizeService& service() { return service_; }

 private:
  struct Connection {
    std::thread thread;
    int fd = -1;  // owned here: closed after join, so a stop can
                  // shutdown(2) it without racing a close/reuse
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_on(int listener_fd, const char* transport);
  void serve_connection(int fd, const char* transport,
                        std::shared_ptr<std::atomic<bool>> done);
  void interrupt_connections();
  void reap_connections(bool join_all);
  void wake();

  ServerConfig config_;
  SanitizeService service_;
  Protocol protocol_;
  bool listened_ = false;
  std::vector<net::Listener> listeners_;  // one per configured endpoint
  std::atomic<bool> stop_{false};
  std::atomic<int> stop_mode_{static_cast<int>(StopMode::kDrain)};
  std::atomic<std::uint16_t> tcp_port_{0};
  std::atomic<std::size_t> active_connections_{0};
  int wake_pipe_[2] = {-1, -1};  // self-pipe: request_stop + signals
  runtime::OrderedMutex<runtime::LockRank::kServeServer> threads_mutex_;
  std::vector<Connection> connections_;
};

}  // namespace bd::serve
