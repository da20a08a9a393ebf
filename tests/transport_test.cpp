// Tests for the socket layer and connection lifecycle: endpoint parsing,
// adversarial framing (byte-at-a-time, split at every boundary, pipelined,
// oversized mid-stream), SIGPIPE-free writes against a dead peer, injected
// network faults (short_write, accept_fail, conn_reset, slow_peer), read
// deadlines and connection-cap shedding over both address families, what
// a Unix listener does with the file already at its path, client retry
// with idempotent resubmission (including across a daemon restart), drain
// vs abandon shutdown, and the WaitOutcome contract.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "robust/fault_injector.h"
#include "robust/supervisor.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace bd {
namespace {

using serve::Admission;
using serve::Client;
using serve::ClientConfig;
using serve::Endpoint;
using serve::JobRecord;
using serve::JobSpec;
using serve::JobState;
using serve::Json;
using serve::SanitizeService;
using serve::ServerConfig;
using serve::ServiceConfig;
using serve::SocketServer;
using serve::StopMode;
using serve::TransportError;
using serve::WaitOutcome;
namespace net = serve::net;

// ---------------------------------------------------------------------------
// endpoint parsing
// ---------------------------------------------------------------------------

TEST(EndpointTest, ParsesValidSpecs) {
  Endpoint e;
  std::string error;
  ASSERT_TRUE(net::parse_endpoint("127.0.0.1:8080", e, error)) << error;
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 8080);
  ASSERT_TRUE(net::parse_endpoint("localhost:1", e, error)) << error;
  EXPECT_EQ(e.port, 1);
  ASSERT_TRUE(net::parse_endpoint(":9000", e, error)) << error;
  EXPECT_EQ(e.host, "");
  ASSERT_TRUE(net::parse_endpoint("*:9000", e, error)) << error;
  ASSERT_TRUE(net::parse_endpoint("0.0.0.0:0", e, error)) << error;
  EXPECT_EQ(e.port, 0);  // ephemeral: legal for listeners
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  Endpoint e;
  std::string error;
  EXPECT_FALSE(net::parse_endpoint("", e, error));
  EXPECT_FALSE(net::parse_endpoint("127.0.0.1", e, error));
  EXPECT_FALSE(net::parse_endpoint("host:", e, error));
  EXPECT_FALSE(net::parse_endpoint("host:abc", e, error));
  EXPECT_FALSE(net::parse_endpoint("host:70000", e, error));
  EXPECT_FALSE(net::parse_endpoint("host:-1", e, error));
  // No DNS by design: non-numeric hosts other than localhost are refused.
  EXPECT_FALSE(net::parse_endpoint("example.com:80", e, error));
  EXPECT_NE(error, "");
}

TEST(EndpointTest, ClientEndpointRequiresRealPort) {
  EXPECT_THROW(serve::tcp_endpoint("127.0.0.1:0"), std::invalid_argument);
  EXPECT_THROW(serve::tcp_endpoint("nonsense"), std::invalid_argument);
  const Endpoint e = serve::tcp_endpoint("127.0.0.1:8080");
  EXPECT_EQ(e.path, "");
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 8080);
}

// ---------------------------------------------------------------------------
// LineFramer: adversarial chunk delivery
// ---------------------------------------------------------------------------

TEST(LineFramerTest, ReassemblesByteAtATime) {
  net::LineFramer framer(64);
  const std::string wire = "{\"op\":\"ping\"}\n";
  std::string line;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_TRUE(framer.append(wire.data() + i, 1));
    EXPECT_FALSE(framer.next(line)) << "line complete early at byte " << i;
  }
  ASSERT_TRUE(framer.append(wire.data() + wire.size() - 1, 1));
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  EXPECT_FALSE(framer.next(line));
}

TEST(LineFramerTest, SplitAtEveryBoundaryYieldsSameFrames) {
  const std::string wire = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
  for (std::size_t split = 1; split < wire.size(); ++split) {
    net::LineFramer framer(64);
    ASSERT_TRUE(framer.append(wire.data(), split));
    ASSERT_TRUE(framer.append(wire.data() + split, wire.size() - split));
    std::vector<std::string> lines;
    std::string line;
    while (framer.next(line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u) << "split at " << split;
    EXPECT_EQ(lines[0], "{\"a\":1}");
    EXPECT_EQ(lines[1], "{\"b\":2}");
    EXPECT_EQ(lines[2], "{\"c\":3}");
  }
}

TEST(LineFramerTest, PipelinedBurstInOneChunk) {
  net::LineFramer framer(16);
  // Many frames in one read: the per-line bound applies to each line, not
  // to the burst, so a legal pipeline larger than max_line still passes.
  std::string wire;
  for (int i = 0; i < 10; ++i) wire += "{\"i\":" + std::to_string(i) + "}\n";
  ASSERT_GT(wire.size(), 16u);
  ASSERT_TRUE(framer.append(wire.data(), wire.size()));
  std::string line;
  int count = 0;
  while (framer.next(line)) ++count;
  EXPECT_EQ(count, 10);
  EXPECT_FALSE(framer.overflowed());
}

TEST(LineFramerTest, OversizedMidStreamLatchesAfterCompleteLines) {
  net::LineFramer framer(8);
  // A complete line, then an unterminated monster: the good line must
  // still come out, and the overflow must latch.
  const std::string wire = "{\"k\":1}\nAAAAAAAAAAAAAAAAAAAA";
  EXPECT_FALSE(framer.append(wire.data(), wire.size()));
  EXPECT_TRUE(framer.overflowed());
  std::string line;
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "{\"k\":1}");
}

TEST(LineFramerTest, ToleratesCrlfAndSkipsKeepAliveNewlines) {
  net::LineFramer framer(64);
  const std::string wire = "\n\n{\"op\":\"ping\"}\r\n\n";
  ASSERT_TRUE(framer.append(wire.data(), wire.size()));
  std::string line;
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  EXPECT_FALSE(framer.next(line));
}

// ---------------------------------------------------------------------------
// net: listen/connect, SIGPIPE safety and injected short writes
// ---------------------------------------------------------------------------

class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ::setenv("BDPROTO_MODE", "quick", 1);
    robust::FaultInjector::instance().reset();
  }
  void TearDown() override { robust::FaultInjector::instance().reset(); }
};

/// The two address families one accept loop serves.
enum class Family { kUnix, kTcp };

std::string family_name(const ::testing::TestParamInfo<Family>& info) {
  return info.param == Family::kUnix ? "Unix" : "Tcp";
}

/// A Unix socket path private to this process.
std::string socket_path(const std::string& tag) {
  return "/tmp/transport_test_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

/// Where a listener of `family` binds: a private Unix path, or an
/// ephemeral loopback port.
Endpoint listen_endpoint(Family family, const std::string& tag) {
  if (family == Family::kUnix) return serve::unix_endpoint(socket_path(tag));
  Endpoint e;
  e.host = "127.0.0.1";
  return e;
}

/// A connected pair made the daemon's way: `client` from net::connect,
/// `server` accepted on a net::listen listener.
struct SocketPair {
  explicit SocketPair(Family family)
      : listener(net::listen(listen_endpoint(family, "pair"))) {
    std::string error;
    client = net::connect(listener.endpoint(), 5.0, error);
    EXPECT_GE(client, 0) << error;
    server = ::accept(listener.fd(), nullptr, nullptr);
    EXPECT_GE(server, 0);
  }
  ~SocketPair() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
  }

  net::Listener listener;
  int client = -1;
  int server = -1;
};

class NetTest : public FaultFixture,
                public ::testing::WithParamInterface<Family> {};

TEST_P(NetTest, SendToClosedPeerReportsResetNotSigpipe) {
  SocketPair pair(GetParam());
  ASSERT_GE(pair.server, 0);
  ::close(pair.server);  // peer dies before we write
  pair.server = -1;
  const std::string payload(4096, 'x');
  // Without MSG_NOSIGNAL this would raise SIGPIPE and kill the test
  // process. The first send may land in the buffer; looping over a large
  // payload guarantees we hit the dead peer.
  net::IoStatus status = net::IoStatus::kOk;
  for (int i = 0; i < 64 && status == net::IoStatus::kOk; ++i) {
    status = net::send_all(pair.client, payload, /*deadline_seconds=*/1.0);
  }
  EXPECT_EQ(status, net::IoStatus::kReset);
}

TEST_P(NetTest, ShortWriteFaultStillDeliversEveryByte) {
  SocketPair pair(GetParam());
  ASSERT_GE(pair.server, 0);
  robust::FaultInjector::instance().configure("short_write@1");
  const std::string payload = "{\"op\":\"ping\"}\n";
  std::thread reader([&pair, &payload] {
    std::string got;
    while (got.size() < payload.size()) {
      const net::IoStatus status = net::recv_some(pair.server, got, 4096, 5.0);
      if (status != net::IoStatus::kOk) break;
    }
    EXPECT_EQ(got, payload);
  });
  EXPECT_EQ(net::send_all(pair.client, payload, /*deadline_seconds=*/5.0),
            net::IoStatus::kOk);
  reader.join();
}

TEST_P(NetTest, ConnectToNothingFailsWithinItsBudget) {
  // Listen, note the address, close: nothing answers there any more.
  Endpoint gone;
  {
    net::Listener listener = net::listen(listen_endpoint(GetParam(), "gone"));
    gone = listener.endpoint();
  }
  std::string error;
  EXPECT_EQ(net::connect(gone, 1.0, error), -1);
  EXPECT_NE(error.find("connect("), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(Families, NetTest,
                         ::testing::Values(Family::kUnix, Family::kTcp),
                         family_name);

// ---------------------------------------------------------------------------
// server lifecycle over real sockets
// ---------------------------------------------------------------------------

JobSpec micro_spec(std::uint64_t seed = 2024) {
  JobSpec spec;
  spec.spc = 2;
  spec.seed = seed;
  spec.width = 4;
  spec.attack_epochs = 1;
  spec.prune_rounds = 2;
  spec.finetune_epochs = 1;
  spec.train_per_class = 4;
  spec.test_per_class = 2;
  return spec;
}

/// A serve daemon on an ephemeral TCP port and/or a Unix socket,
/// run()ning on its own thread until stop() or a protocol shutdown.
class TestServer {
 public:
  explicit TestServer(ServerConfig config)
      : socket_path_(config.socket_path), server_(config) {
    thread_ = std::thread([this] { server_.run(); });
    if (!config.listen_address.empty()) {
      for (int i = 0; i < 500 && server_.tcp_port() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    } else {
      const Client probe(config.socket_path);
      for (int i = 0; i < 500 && !probe.alive(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  ~TestServer() {
    server_.request_stop(StopMode::kDrain);
    if (thread_.joinable()) thread_.join();
  }
  SocketServer& server() { return server_; }
  Endpoint tcp() const {
    return serve::tcp_endpoint("127.0.0.1:" +
                               std::to_string(server_.tcp_port()));
  }
  /// The TCP endpoint when the daemon listens on one, else its Unix path.
  Endpoint endpoint() const {
    return server_.tcp_port() != 0 ? tcp() : serve::unix_endpoint(socket_path_);
  }
  /// Joins run() — for tests that end the daemon via a protocol shutdown.
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::string socket_path_;
  SocketServer server_;
  std::thread thread_;
};

ServerConfig tcp_config(robust::Supervisor* supervisor,
                        std::size_t workers = 0) {
  ServerConfig config;
  config.socket_path.clear();
  config.listen_address = "127.0.0.1:0";
  config.service.workers = workers;
  config.service.supervisor = supervisor;
  return config;
}

/// A daemon listening on `family` only.
ServerConfig family_config(Family family, robust::Supervisor* supervisor) {
  ServerConfig config = tcp_config(supervisor);
  if (family == Family::kUnix) {
    config.listen_address.clear();
    config.socket_path = socket_path("daemon");
  }
  return config;
}

ClientConfig fast_retries() {
  ClientConfig c;
  c.connect_timeout_seconds = 5.0;
  c.io_timeout_seconds = 5.0;
  c.overall_deadline_seconds = 30.0;
  c.retry_budget = 4;
  c.backoff_initial_seconds = 0.005;  // keep tests fast
  c.backoff_max_seconds = 0.02;
  return c;
}

using TransportTest = FaultFixture;

TEST_F(TransportTest, TcpEndToEndPingSubmitStatus) {
  robust::Supervisor supervisor;
  TestServer ts(tcp_config(&supervisor));
  const Client client(ts.tcp());
  EXPECT_TRUE(client.alive());

  const Json submit = client.request_json(
      "{\"op\":\"submit\",\"tenant\":\"t0\",\"job\":{\"spc\":2,\"seed\":7}}");
  ASSERT_TRUE(submit.get_bool("ok", false)) << submit.get_string("message");
  const std::string id = submit.get_string("id");
  const Json status = client.request_json(
      serve::JsonObject().set("op", "status").set("id", id).str());
  ASSERT_TRUE(status.get_bool("ok", false));
  EXPECT_EQ(status.find("job")->get_string("state"), "queued");
}

TEST_F(TransportTest, OneDaemonServesBothFamilies) {
  robust::Supervisor supervisor;
  ServerConfig config = tcp_config(&supervisor);
  config.socket_path = socket_path("both");
  TestServer ts(config);
  EXPECT_TRUE(Client(ts.tcp()).alive());
  EXPECT_TRUE(Client(config.socket_path).alive());
}

TEST_F(TransportTest, ByteAtATimeAndPipelinedRequestsOverTcp) {
  robust::Supervisor supervisor;
  TestServer ts(tcp_config(&supervisor));
  std::string error;
  const int fd = net::connect(ts.tcp(), 5.0, error);
  ASSERT_GE(fd, 0) << error;

  // Trickle one ping a byte at a time...
  const std::string ping = "{\"op\":\"ping\"}\n";
  for (char c : ping) {
    ASSERT_EQ(net::send_all(fd, &c, 1, 5.0), net::IoStatus::kOk);
  }
  std::string buf;
  while (buf.find('\n') == std::string::npos) {
    ASSERT_EQ(net::recv_some(fd, buf, 4096, 5.0), net::IoStatus::kOk);
  }
  EXPECT_NE(buf.find("pong"), std::string::npos);

  // ...then pipeline three requests in one segment on the same connection.
  buf.clear();
  ASSERT_EQ(net::send_all(fd, ping + ping + ping, 5.0), net::IoStatus::kOk);
  int newlines = 0;
  while (newlines < 3) {
    ASSERT_EQ(net::recv_some(fd, buf, 4096, 5.0), net::IoStatus::kOk);
    newlines = static_cast<int>(
        std::count(buf.begin(), buf.end(), '\n'));
  }
  EXPECT_EQ(newlines, 3);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// connection lifecycle, over each address family
// ---------------------------------------------------------------------------

class LifecycleTest : public FaultFixture,
                      public ::testing::WithParamInterface<Family> {};

TEST_P(LifecycleTest, OversizedRequestGetsStructuredErrorNotCrash) {
  robust::Supervisor supervisor;
  TestServer ts(family_config(GetParam(), &supervisor));
  std::string error;
  const int fd = net::connect(ts.endpoint(), 5.0, error);
  ASSERT_GE(fd, 0) << error;
  // An unterminated line past kMaxRequestBytes arrives mid-stream.
  const std::string flood(serve::Protocol::kMaxRequestBytes + 100, 'a');
  ASSERT_EQ(net::send_all(fd, flood, 5.0), net::IoStatus::kOk);
  std::string buf;
  while (buf.find('\n') == std::string::npos) {
    const net::IoStatus status = net::recv_some(fd, buf, 4096, 5.0);
    if (status != net::IoStatus::kOk) break;
  }
  EXPECT_NE(buf.find("oversized_request"), std::string::npos);
  ::close(fd);
  // The daemon is still alive for the next client.
  EXPECT_TRUE(Client(ts.endpoint()).alive());
}

TEST_P(LifecycleTest, PeerClosingMidResponseDoesNotKillDaemon) {
  robust::Supervisor supervisor;
  TestServer ts(family_config(GetParam(), &supervisor));
  // Fire a request and slam the connection shut without reading the
  // response, by RST and by orderly close; the daemon's reply hits a dead
  // or dying socket and must not SIGPIPE the process.
  for (int round = 0; round < 3; ++round) {
    for (const bool reset : {true, false}) {
      std::string error;
      const int fd = net::connect(ts.endpoint(), 5.0, error);
      ASSERT_GE(fd, 0) << error;
      ASSERT_EQ(net::send_all(fd, std::string("{\"op\":\"stats\"}\n"), 5.0),
                net::IoStatus::kOk);
      if (reset) {
        struct linger lg {};
        lg.l_onoff = 1;
        lg.l_linger = 0;  // RST instead of FIN: the rudest possible exit
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
      }
      ::close(fd);  // response still unread
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(Client(ts.endpoint()).alive());
}

TEST_P(LifecycleTest, ReadDeadlineEvictsSilentConnection) {
  robust::Supervisor supervisor;
  ServerConfig config = family_config(GetParam(), &supervisor);
  config.read_deadline_seconds = 0.2;
  TestServer ts(config);
  std::string error;
  const int fd = net::connect(ts.endpoint(), 5.0, error);
  ASSERT_GE(fd, 0) << error;
  // Send nothing. Within the deadline (plus slack) the server must give
  // up on us: a best-effort `timeout` error then EOF.
  std::string buf;
  net::IoStatus status = net::IoStatus::kOk;
  while (status == net::IoStatus::kOk) {
    status = net::recv_some(fd, buf, 4096, 5.0);
  }
  EXPECT_EQ(status, net::IoStatus::kClosed);
  EXPECT_NE(buf.find("timeout"), std::string::npos);
  ::close(fd);
}

TEST_P(LifecycleTest, ConnectionCapShedsWithOverloadedError) {
  robust::Supervisor supervisor;
  ServerConfig config = family_config(GetParam(), &supervisor);
  config.max_connections = 1;
  config.read_deadline_seconds = 10.0;  // the hog idles within its budget
  TestServer ts(config);
  std::string error;
  const int hog = net::connect(ts.endpoint(), 5.0, error);
  ASSERT_GE(hog, 0) << error;
  // The hog must be inside serve_connection (not just queued in the
  // accept backlog) before the next connection can be shed.
  ASSERT_EQ(net::send_all(hog, std::string("{\"op\":\"ping\"}\n"), 5.0),
            net::IoStatus::kOk);
  std::string hog_buf;
  while (hog_buf.find('\n') == std::string::npos) {
    ASSERT_EQ(net::recv_some(hog, hog_buf, 4096, 5.0), net::IoStatus::kOk);
  }

  bool shed = false;
  for (int i = 0; i < 50 && !shed; ++i) {
    const int fd = net::connect(ts.endpoint(), 5.0, error);
    ASSERT_GE(fd, 0) << error;
    std::string buf;
    net::IoStatus status = net::IoStatus::kOk;
    while (buf.find('\n') == std::string::npos &&
           status == net::IoStatus::kOk) {
      status = net::recv_some(fd, buf, 4096, 5.0);
    }
    ::close(fd);
    shed = buf.find("overloaded") != std::string::npos;
  }
  EXPECT_TRUE(shed);
  ::close(hog);

  // With the hog gone the slot frees up and service resumes.
  bool recovered = false;
  const Client probe(ts.endpoint());
  for (int i = 0; i < 100 && !recovered; ++i) {
    recovered = probe.alive();
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
}

INSTANTIATE_TEST_SUITE_P(Families, LifecycleTest,
                         ::testing::Values(Family::kUnix, Family::kTcp),
                         family_name);

// ---------------------------------------------------------------------------
// a Unix listener and the file already at its path
// ---------------------------------------------------------------------------

using UnixPathTest = FaultFixture;

ServerConfig unix_config(const std::string& path,
                         robust::Supervisor* supervisor) {
  ServerConfig config = tcp_config(supervisor);
  config.listen_address.clear();
  config.socket_path = path;
  return config;
}

/// run()s a daemon that must fail to listen; "" when it ran instead. The
/// stop is requested first, so a run() that wrongly binds returns at once
/// rather than serving forever.
std::string failed_run(const ServerConfig& config) {
  SocketServer server(config);
  server.request_stop();
  try {
    server.run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  return content;
}

TEST_F(UnixPathTest, SecondDaemonOnLivePathFailsAndFirstStillAnswers) {
  robust::Supervisor supervisor;
  const std::string path = socket_path("live");
  TestServer first(unix_config(path, &supervisor));
  ASSERT_TRUE(Client(path).alive());
  const std::string error = failed_run(unix_config(path, &supervisor));
  EXPECT_NE(error.find("a daemon is already listening on " + path),
            std::string::npos)
      << "second daemon's run(): '" << error << "'";
  EXPECT_TRUE(Client(path).alive());
}

TEST_F(UnixPathTest, RegularFileAtPathIsRefusedAndKept) {
  robust::Supervisor supervisor;
  const std::string path = socket_path("notes");
  std::ofstream(path) << "keep me\n";
  const std::string error = failed_run(unix_config(path, &supervisor));
  EXPECT_NE(error.find(path), std::string::npos) << "run(): '" << error << "'";
  EXPECT_EQ(read_file(path), "keep me");
  std::remove(path.c_str());
}

TEST_F(UnixPathTest, StaleSocketFromKilledDaemonIsReused) {
  robust::Supervisor supervisor;
  const std::string path = socket_path("stale");
  // What a killed daemon leaves: a socket file nothing listens on.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
  struct stat st {};
  ASSERT_EQ(::lstat(path.c_str(), &st), 0);
  ASSERT_TRUE(S_ISSOCK(st.st_mode));
  {
    TestServer ts(unix_config(path, &supervisor));
    EXPECT_TRUE(Client(path).alive());
  }
  EXPECT_NE(::lstat(path.c_str(), &st), 0)
      << "shutdown removes the socket the daemon bound";
}

TEST_F(UnixPathTest, ShutdownLeavesAReplacedPathAlone) {
  robust::Supervisor supervisor;
  const std::string path = socket_path("replaced");
  {
    TestServer ts(unix_config(path, &supervisor));
    ASSERT_TRUE(Client(path).alive());
    // Someone removes the daemon's socket and puts a file there.
    std::remove(path.c_str());
    std::ofstream(path) << "keep me\n";
  }
  EXPECT_EQ(read_file(path), "keep me");
  std::remove(path.c_str());
}

TEST_F(TransportTest, AcceptFailFaultIsSheddedAndRetried) {
  robust::Supervisor supervisor;
  TestServer ts(tcp_config(&supervisor));
  robust::FaultInjector::instance().configure("accept_fail@1");
  int retries = 0;
  const Client client(ts.tcp(), fast_retries());
  const Json response = client.request_json_retry("{\"op\":\"ping\"}",
                                                  &retries);
  EXPECT_TRUE(response.get_bool("ok", false));
  EXPECT_GE(retries, 1);
}

TEST_F(TransportTest, SlowPeerRequestIsReassembledByServer) {
  robust::Supervisor supervisor;
  TestServer ts(tcp_config(&supervisor));
  robust::FaultInjector::instance().configure("slow_peer@1");
  const Client client(ts.tcp(), fast_retries());
  const Json response = client.request_json("{\"op\":\"ping\"}");
  EXPECT_TRUE(response.get_bool("ok", false));
}

// ---------------------------------------------------------------------------
// idempotent retries and dedup
// ---------------------------------------------------------------------------

TEST_F(TransportTest, ConnResetRetryWithClientIdDoesNotDuplicate) {
  robust::Supervisor supervisor;
  TestServer ts(tcp_config(&supervisor));
  // The reset fires after the submit is sent: the daemon may have enqueued
  // the job, the client cannot know. The retry must resolve to ONE job.
  robust::FaultInjector::instance().configure("conn_reset@1");
  const Client client(ts.tcp(), fast_retries());
  int retries = 0;
  const Json response = client.request_json_retry(
      "{\"op\":\"submit\",\"tenant\":\"t0\","
      "\"job\":{\"spc\":2,\"seed\":7,\"client_id\":\"retry-test-1\"}}",
      &retries);
  ASSERT_TRUE(response.get_bool("ok", false)) << response.get_string("message");
  EXPECT_GE(retries, 1);
  EXPECT_TRUE(response.get_bool("dedup", false));

  const Json jobs = client.request_json("{\"op\":\"jobs\"}");
  ASSERT_NE(jobs.find("jobs"), nullptr);
  EXPECT_EQ(jobs.find("jobs")->items().size(), 1u);
}

TEST_F(TransportTest, DedupSurvivesDaemonRestart) {
  const std::string journal = "/tmp/transport_test_dedup.jsonl";
  std::remove(journal.c_str());
  JobSpec spec = micro_spec(11);
  spec.client_job_id = "restart-key";
  std::string first_id;
  {
    ServiceConfig config;
    config.workers = 0;
    config.journal_path = journal;
    SanitizeService service(config);
    const serve::SubmitResult submitted = service.submit(spec);
    ASSERT_EQ(submitted.admission, Admission::kAdmitted);
    EXPECT_FALSE(submitted.deduplicated);
    first_id = submitted.id;
    const serve::SubmitResult again = service.submit(spec);
    ASSERT_EQ(again.admission, Admission::kAdmitted);
    EXPECT_TRUE(again.deduplicated);
    EXPECT_EQ(again.id, first_id);
    service.stop();
  }
  {
    // Same journal, new incarnation: the key must still dedup, even though
    // the job is now terminal (interrupted by the restart).
    ServiceConfig config;
    config.workers = 0;
    config.journal_path = journal;
    SanitizeService service(config);
    const serve::SubmitResult after = service.submit(spec);
    ASSERT_EQ(after.admission, Admission::kAdmitted);
    EXPECT_TRUE(after.deduplicated);
    EXPECT_EQ(after.id, first_id);
    EXPECT_EQ(service.stats().deduplicated, 1);
    service.stop();
  }
  std::remove(journal.c_str());
}

TEST_F(TransportTest, RejectsBadClientIds) {
  EXPECT_THROW(
      serve::parse_job_spec(
          [] {
            Json v;
            std::string e;
            Json::parse("{\"client_id\":\"bad id with spaces\"}", v, e);
            return v;
          }(),
          "t0"),
      serve::BadRequest);
  EXPECT_THROW(
      serve::parse_job_spec(
          [] {
            Json v;
            std::string e;
            Json::parse("{\"client_id\":\"" + std::string(200, 'a') + "\"}",
                        v, e);
            return v;
          }(),
          "t0"),
      serve::BadRequest);
}

TEST_F(TransportTest, OverloadedReplyIsRetriedWithinBudget) {
  // No server at all: connection refused is retryable, and the budget
  // bounds the attempts — the last error surfaces, not a hang.
  const Endpoint nowhere = serve::tcp_endpoint("127.0.0.1:1");
  ClientConfig config = fast_retries();
  config.retry_budget = 2;
  config.connect_timeout_seconds = 0.2;
  const Client client(nowhere, config);
  int retries = 0;
  try {
    (void)client.request_json_retry("{\"op\":\"ping\"}", &retries);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_TRUE(e.retryable());
  }
}

TEST_F(TransportTest, OverallDeadlineBoundsRetryLoop) {
  const Endpoint nowhere = serve::tcp_endpoint("127.0.0.1:1");
  ClientConfig config = fast_retries();
  config.retry_budget = 1000000;  // budget alone would spin a long time
  config.overall_deadline_seconds = 0.2;
  config.connect_timeout_seconds = 0.05;
  config.backoff_initial_seconds = 0.05;
  config.backoff_max_seconds = 0.05;
  const Client client(nowhere, config);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)client.request_json_retry("{\"op\":\"ping\"}");
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_FALSE(e.retryable());  // deadline exhaustion is terminal
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed.count(), 5.0);
}

// ---------------------------------------------------------------------------
// shutdown: drain vs abandon, WaitOutcome
// ---------------------------------------------------------------------------

TEST_F(TransportTest, ProtocolShutdownAbandonLeavesCrashEquivalentJournal) {
  const std::string journal = "/tmp/transport_test_abandon.jsonl";
  std::remove(journal.c_str());
  robust::Supervisor supervisor;
  ServerConfig config = tcp_config(&supervisor);
  config.service.journal_path = journal;
  std::string id;
  {
    TestServer ts(config);
    const Client client(ts.tcp());
    const Json submit = client.request_json(
        "{\"op\":\"submit\",\"tenant\":\"t0\",\"job\":{\"spc\":2,"
        "\"seed\":3}}");
    ASSERT_TRUE(submit.get_bool("ok", false));
    id = submit.get_string("id");
    const Json bye =
        client.request_json("{\"op\":\"shutdown\",\"drain\":false}");
    ASSERT_TRUE(bye.get_bool("ok", false));
    EXPECT_FALSE(bye.get_bool("drain", true));
    ts.join();  // run() returns once the abandon completes
  }
  // Restart: the abandoned job must look exactly like a crash left it.
  ServiceConfig restarted;
  restarted.workers = 0;
  restarted.journal_path = journal;
  SanitizeService service(restarted);
  JobRecord record;
  ASSERT_TRUE(service.status(id, record));
  EXPECT_EQ(record.state, JobState::kInterrupted);
  service.stop();
  std::remove(journal.c_str());
}

TEST_F(TransportTest, WaitOutcomeDistinguishesTimeoutFromUnknown) {
  ServiceConfig config;
  config.workers = 0;  // nothing ever runs: waits can only time out
  SanitizeService service(config);
  const serve::SubmitResult submitted = service.submit(micro_spec(5));
  ASSERT_EQ(submitted.admission, Admission::kAdmitted);
  EXPECT_EQ(service.wait(submitted.id, 0.05), WaitOutcome::kTimeout);
  EXPECT_EQ(service.wait("j999999", 0.05), WaitOutcome::kUnknown);
  service.stop();
  // After stop, waiters must not hang: the queued job never finished, so
  // the outcome is a timeout, returned promptly.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(service.wait(submitted.id, 30.0), WaitOutcome::kTimeout);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed.count(), 5.0);
}

TEST_F(TransportTest, ProtocolWaitReportsTerminalJob) {
  robust::Supervisor supervisor;
  ServiceConfig config;
  config.workers = 1;
  config.supervisor = &supervisor;
  SanitizeService service(config);
  service.start();
  serve::Protocol protocol(service);
  const serve::SubmitResult submitted = service.submit(micro_spec(6));
  ASSERT_EQ(submitted.admission, Admission::kAdmitted);
  const serve::ProtocolResult result = protocol.handle_line(
      serve::JsonObject()
          .set("op", "wait")
          .set("id", submitted.id)
          .set_double("timeout", 60.0)
          .str());
  Json response;
  std::string error;
  ASSERT_TRUE(Json::parse(result.response, response, error)) << error;
  ASSERT_TRUE(response.get_bool("ok", false))
      << response.get_string("message");
  const std::string state = response.find("job")->get_string("state");
  EXPECT_TRUE(state == "done" || state == "failed") << state;
  service.stop();
}

}  // namespace
}  // namespace bd
