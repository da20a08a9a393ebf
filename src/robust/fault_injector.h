// Deterministic fault injection for exercising recovery paths.
//
// Faults are armed from a spec string (env BDPROTO_FAULTS or programmatic
// configure()) of comma-separated `kind@n` terms, where `n` is the 1-based
// occurrence at which the fault fires:
//
//   io_fail@3     third checkpoint/journal I/O operation throws
//                 std::runtime_error
//   nan@120       training batch loss #120 is replaced with NaN
//   nan_grad@2    gradient-scoring pass #2 (Grad-Prune) produces NaN scores
//   crash@5       a SimulatedCrash is thrown after the 5th completed bench
//                 cell (simulates a kill between cells; the run journal is
//                 already durable at that point)
//   hang@4        cancellation poll #4 sits still, as a stalled loop
//                 would, until the attempt's stall or deadline budget or
//                 its caller's token ends it (30 s cap; exercises stall
//                 detection + cooperative cancellation)
//   slow_io@2     second journal append sleeps ~25ms before proceeding
//                 (latency without failure; must not change any output)
//   torn_write@1  first v2 checkpoint write stops halfway through the tmp
//                 file and throws SimulatedCrash, leaving the torn tmp on
//                 disk (proves the atomic-rename commit protocol)
//   oom_sim@3     third defense trial throws SimulatedOom (a bad_alloc the
//                 supervisor treats as retryable)
//   crash_worker@2  second claimed shard cell SIGKILLs the worker process
//                 mid-cell — a real kill, not an exception: the claim is
//                 already counted in the lease file, so a surviving
//                 worker must take over the cell (src/shard/)
//   conn_reset@1  client side: after sending its 1st request the client
//                 sets SO_LINGER{1,0} and closes, so the daemon sees a
//                 real RST mid-exchange and the client's retry layer must
//                 re-submit idempotently (src/serve/client.cpp)
//   slow_peer@2   client side: the 2nd request is sent one byte at a time
//                 with small sleeps — a slowloris peer exercising the
//                 server's framing and read deadlines (src/serve/client.cpp)
//   short_write@3 the 3rd send_all() call is degraded to one-byte send(2)
//                 syscalls, proving the partial-write loop reassembles the
//                 frame (src/serve/net.cpp)
//   accept_fail@1 the daemon's 1st accepted connection is dropped at
//                 accept as if accept(2) failed transiently; the accept
//                 loop must log and keep serving (src/serve/server.cpp)
//
// Each site calls fire(kind), which counts calls per kind and returns true
// at the armed indices, or the fire_*() helper that also acts on a hit
// (throws, sleeps or kills). All counters are process-global
// and mutex-guarded; tests reset them via configure()/reset().
#pragma once

#include <cstdint>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <string>

namespace bd::robust {

/// Thrown by an armed `crash@n` fault. Mirrors a mid-run kill without
/// tearing down the process, so tests can catch it and re-enter with
/// resume enabled. Real kills are equivalent because every durable write
/// is flushed before the crash check runs.
class SimulatedCrash : public std::runtime_error {
 public:
  explicit SimulatedCrash(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by an armed `oom_sim@n` fault. Derives from std::bad_alloc so
/// recovery code exercises the same catch paths a real allocation failure
/// would, but is distinguishable in test assertions.
class SimulatedOom : public std::bad_alloc {
 public:
  const char* what() const noexcept override {
    return "simulated out-of-memory (BDPROTO_FAULTS oom_sim@n)";
  }
};

enum class FaultKind {
  kIoFail = 0,
  kNanLoss,
  kNanGrad,
  kCrash,
  kHang,
  kSlowIo,
  kTornWrite,
  kOom,
  kCrashWorker,
  kConnReset,
  kSlowPeer,
  kShortWrite,
  kAcceptFail,
};

class FaultInjector {
 public:
  /// Process-wide instance; first use arms faults from BDPROTO_FAULTS.
  static FaultInjector& instance();

  /// Re-arms from a spec string ("io_fail@3,nan@120"), resetting all
  /// counters. Throws std::invalid_argument on malformed specs.
  void configure(const std::string& spec);

  /// Disarms everything and resets counters.
  void reset();

  /// True if any occurrence of `kind` is still pending.
  bool armed(FaultKind kind) const;

  /// Counts one occurrence of `kind`; true when that occurrence is armed.
  bool fire(FaultKind kind);

  /// fire(kIoFail), throwing std::runtime_error mentioning `what` if armed.
  void fire_io(const std::string& what);

  /// fire(kCrash), throwing SimulatedCrash mentioning `where` if armed.
  void fire_crash(const std::string& where);

  /// fire(kSlowIo): sleeps ~25ms mentioning `what` if armed. Latency only —
  /// never fails, never changes output.
  void fire_slow_io(const std::string& what);

  /// fire(kOom), throwing SimulatedOom if armed (`what` is logged).
  void fire_oom(const std::string& what);

  /// fire(kCrashWorker): if armed, SIGKILLs the current process (no
  /// destructors, no flushes) — the honest model of a worker dying
  /// mid-cell. Never returns when it fires.
  void fire_crash_worker(const std::string& where);

 private:
  FaultInjector();

  static constexpr int kKinds = 13;

  mutable std::mutex mutex_;
  std::set<std::int64_t> triggers_[kKinds];  // armed occurrences per kind
  std::int64_t counts_[kKinds] = {};
};

}  // namespace bd::robust
