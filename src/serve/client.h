// Resilient client for the serve daemon, over AF_UNIX or TCP.
//
// One request line in, one response line out, one connection per call —
// stateless, so concurrent callers never share a fd. On top of that the
// retrying entry point (request_json_retry) adds the failure policy a
// client of a minutes-per-job service needs:
//
//   - every step is deadline-bounded (connect / per-I/O / overall);
//   - transport failures (refused, reset, timeout, daemon closed
//     mid-response) and explicit `overloaded` shed replies are retried
//     with jittered exponential backoff within a retry budget;
//   - retries are only safe because submits carry a client-supplied
//     idempotency key (job.client_id): a resubmit after a reset — the
//     client cannot know whether the daemon enqueued the job before the
//     connection died — answers with the existing job, never a duplicate.
//
// Backoff jitter draws from a deterministically seeded bd::Rng (no wall
// clock, no random_device), so fault-injection tests replay exactly.
//
// Client-side network faults fire here when armed (robust::FaultInjector):
// `conn_reset@n` RSTs the connection after the n-th request is sent
// (SO_LINGER{1,0} + close), `slow_peer@n` trickles the n-th request one
// byte at a time against the server's read deadline.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/net.h"
#include "serve/wire.h"

namespace bd::serve {

/// Where the daemon lives: a filesystem socket or a TCP endpoint.
using net::Endpoint;
using net::unix_endpoint;
/// Parses "host:port"; throws std::invalid_argument on a malformed spec
/// or port 0 (clients must name a real port).
Endpoint tcp_endpoint(const std::string& host_port);

/// A transport-level failure (vs a protocol {"ok":false,...} reply).
/// `retryable` distinguishes faults worth re-attempting (refused, reset,
/// timeout, truncated response) from caller bugs (bad endpoint spec).
class TransportError : public std::runtime_error {
 public:
  TransportError(const std::string& what, bool retryable)
      : std::runtime_error(what), retryable_(retryable) {}
  bool retryable() const { return retryable_; }

 private:
  bool retryable_;
};

struct ClientConfig {
  double connect_timeout_seconds = 5.0;
  /// Budget for each send/recv step of one request (<= 0: unbounded).
  double io_timeout_seconds = 30.0;
  /// Cap on one request_json_retry call including backoff sleeps
  /// (<= 0: only the retry budget bounds it).
  double overall_deadline_seconds = 120.0;
  /// Retries after the first attempt (0 = single attempt).
  int retry_budget = 4;
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  /// Seed for backoff jitter; fixed default keeps tests deterministic,
  /// loadgen varies it per worker so a thundering herd still spreads.
  std::uint64_t jitter_seed = 0xBDC7C11EULL;

  /// Defaults overridden by BDPROTO_CONNECT_TIMEOUT / BDPROTO_IO_TIMEOUT /
  /// BDPROTO_CLIENT_DEADLINE / BDPROTO_RETRY_BUDGET (see util/env.h).
  static ClientConfig from_env();
};

class Client {
 public:
  /// Unix-socket client with default config (the common bdctl path).
  explicit Client(std::string socket_path)
      : Client(unix_endpoint(std::move(socket_path))) {}
  explicit Client(Endpoint endpoint, ClientConfig config = ClientConfig());

  /// Sends `line` (newline appended) and returns the daemon's response
  /// line. One attempt: throws TransportError on connect/send/receive
  /// failure; protocol errors come back as normal {"ok":false,...}
  /// responses.
  std::string request(const std::string& line) const;

  /// request() + parse; throws std::runtime_error when the response is not
  /// valid JSON (a daemon bug, not a client mistake).
  Json request_json(const std::string& line) const;

  /// request_json() with the retry policy: retryable TransportErrors and
  /// `overloaded` replies are re-attempted with jittered exponential
  /// backoff until the retry budget or overall deadline runs out (the
  /// last error is rethrown). `retries_out` (optional) receives the
  /// number of retries performed. Submits retried through here must
  /// carry job.client_id — see the header comment.
  Json request_json_retry(const std::string& line,
                          int* retries_out = nullptr) const;

  /// True when a daemon answers {"op":"ping"} at the endpoint.
  bool alive() const;

  const Endpoint& endpoint() const { return endpoint_; }
  const ClientConfig& config() const { return config_; }

 private:
  int connect_fd() const;  // throws TransportError

  Endpoint endpoint_;
  ClientConfig config_;
};

}  // namespace bd::serve
