#include "serve/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "serve/net.h"
#include "util/env.h"
#include "util/rng.h"

namespace bd::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

Endpoint tcp_endpoint(const std::string& host_port) {
  Endpoint e;
  std::string error;
  if (!net::parse_endpoint(host_port, e, error)) {
    throw std::invalid_argument(error);
  }
  if (e.port == 0) {
    throw std::invalid_argument("bad endpoint '" + host_port +
                                "': clients must name a nonzero port");
  }
  return e;
}

ClientConfig ClientConfig::from_env() {
  ClientConfig c;
  if (const auto v = env_double("BDPROTO_CONNECT_TIMEOUT")) {
    c.connect_timeout_seconds = *v;
  }
  if (const auto v = env_double("BDPROTO_IO_TIMEOUT")) {
    c.io_timeout_seconds = *v;
  }
  if (const auto v = env_double("BDPROTO_CLIENT_DEADLINE")) {
    c.overall_deadline_seconds = *v;
  }
  if (const auto v = env_int("BDPROTO_RETRY_BUDGET")) {
    c.retry_budget = *v < 0 ? 0 : static_cast<int>(*v);
  }
  return c;
}

Client::Client(Endpoint endpoint, ClientConfig config)
    : endpoint_(std::move(endpoint)), config_(config) {}

int Client::connect_fd() const {
  std::string error;
  const int fd =
      net::connect(endpoint_, config_.connect_timeout_seconds, error);
  if (fd < 0) throw TransportError(error, /*retryable=*/true);
  return fd;
}

std::string Client::request(const std::string& line) const {
  const int fd = connect_fd();
  const std::string payload = line + "\n";
  auto& faults = robust::FaultInjector::instance();

  if (faults.fire(robust::FaultKind::kSlowPeer)) {
    // Slowloris this request: one byte per send with small gaps. The
    // server's framing must reassemble it, and its read deadline must
    // tolerate a peer that is slow but making progress.
    for (std::size_t i = 0; i < payload.size(); ++i) {
      const net::IoStatus status = net::send_all(
          fd, payload.data() + i, 1, config_.io_timeout_seconds);
      if (status != net::IoStatus::kOk) {
        ::close(fd);
        throw TransportError(
            std::string("send(): ") + net::io_status_name(status),
            /*retryable=*/true);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } else {
    int err = 0;
    const net::IoStatus status =
        net::send_all(fd, payload, config_.io_timeout_seconds, &err);
    if (status != net::IoStatus::kOk) {
      ::close(fd);
      throw TransportError(
          std::string("send(): ") + net::io_status_name(status),
          /*retryable=*/true);
    }
  }

  if (faults.fire(robust::FaultKind::kConnReset)) {
    // SO_LINGER{on, 0}: close() sends a real RST instead of FIN, so the
    // daemon sees the mid-exchange reset a crashing client produces. The
    // client cannot know whether the request was processed — exactly the
    // ambiguity the idempotent-retry contract exists for.
    struct linger lg {};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
    throw TransportError(
        "injected connection reset after send (BDPROTO_FAULTS conn_reset@n)",
        /*retryable=*/true);
  }

  std::string response;
  while (response.find('\n') == std::string::npos) {
    const net::IoStatus status =
        net::recv_some(fd, response, 4096, config_.io_timeout_seconds);
    if (status == net::IoStatus::kClosed) {
      ::close(fd);
      throw TransportError("daemon closed the connection mid-response",
                           /*retryable=*/true);
    }
    if (status != net::IoStatus::kOk) {
      ::close(fd);
      throw TransportError(
          std::string("recv(): ") + net::io_status_name(status),
          /*retryable=*/true);
    }
  }
  ::close(fd);
  return response.substr(0, response.find('\n'));
}

Json Client::request_json(const std::string& line) const {
  const std::string response = request(line);
  Json parsed;
  std::string error;
  if (!Json::parse(response, parsed, error)) {
    throw std::runtime_error("malformed response from daemon: " + error +
                             " in: " + response);
  }
  return parsed;
}

Json Client::request_json_retry(const std::string& line,
                                int* retries_out) const {
  const auto start = Clock::now();
  int retries = 0;
  double delay = config_.backoff_initial_seconds;
  for (int attempt = 0;; ++attempt) {
    try {
      const Json response = request_json(line);
      if (!response.get_bool("ok", true) &&
          response.get_string("error") == "overloaded") {
        // The daemon shed this connection on purpose; treat like a
        // retryable transport fault so the backoff below applies.
        throw TransportError("daemon overloaded: " +
                                 response.get_string("message"),
                             /*retryable=*/true);
      }
      if (retries_out != nullptr) *retries_out = retries;
      return response;
    } catch (const TransportError& e) {
      if (!e.retryable() || attempt >= config_.retry_budget) throw;
      const double jitter =
          Rng(config_.jitter_seed ^ static_cast<std::uint64_t>(attempt + 1))
              .uniform(0.5, 1.0);
      const double sleep_seconds = delay * jitter;
      if (config_.overall_deadline_seconds > 0.0 &&
          seconds_since(start) + sleep_seconds >
              config_.overall_deadline_seconds) {
        throw TransportError(std::string("overall deadline exhausted after ") +
                                 std::to_string(retries) +
                                 " retries; last error: " + e.what(),
                             /*retryable=*/false);
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(sleep_seconds));
      delay = delay * 2.0 > config_.backoff_max_seconds
                  ? config_.backoff_max_seconds
                  : delay * 2.0;
      ++retries;
      BD_OBS_COUNT("serve.client.retries", 1);
    }
  }
}

bool Client::alive() const {
  try {
    const Json response = request_json("{\"op\":\"ping\"}");
    return response.get_bool("ok", false);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace bd::serve
