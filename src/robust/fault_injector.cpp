#include "robust/fault_injector.h"

#include <csignal>

#include <chrono>
#include <string_view>
#include <thread>

#include "util/env.h"
#include "util/logging.h"

namespace bd::robust {

namespace {

int kind_index(FaultKind kind) { return static_cast<int>(kind); }

FaultKind parse_kind(const std::string& name) {
  if (name == "io_fail") return FaultKind::kIoFail;
  if (name == "nan") return FaultKind::kNanLoss;
  if (name == "nan_grad") return FaultKind::kNanGrad;
  if (name == "crash") return FaultKind::kCrash;
  if (name == "hang") return FaultKind::kHang;
  if (name == "slow_io") return FaultKind::kSlowIo;
  if (name == "torn_write") return FaultKind::kTornWrite;
  if (name == "oom_sim") return FaultKind::kOom;
  if (name == "crash_worker") return FaultKind::kCrashWorker;
  if (name == "conn_reset") return FaultKind::kConnReset;
  if (name == "slow_peer") return FaultKind::kSlowPeer;
  if (name == "short_write") return FaultKind::kShortWrite;
  if (name == "accept_fail") return FaultKind::kAcceptFail;
  throw std::invalid_argument("BDPROTO_FAULTS: unknown fault kind '" + name +
                              "'");
}

}  // namespace

FaultInjector::FaultInjector() {
  if (const auto spec = env_string("BDPROTO_FAULTS")) {
    configure(*spec);
  }
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const std::string& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& t : triggers_) t.clear();
  for (auto& c : counts_) c = 0;

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string term = spec.substr(pos, end - pos);
    pos = end + 1;
    if (term.empty()) continue;

    const std::size_t at = term.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("BDPROTO_FAULTS: term '" + term +
                                  "' is not of the form kind@n");
    }
    const FaultKind kind = parse_kind(term.substr(0, at));
    const auto n = parse_whole<std::int64_t>(
        std::string_view(term).substr(at + 1));
    if (!n || *n < 1) {
      throw std::invalid_argument("BDPROTO_FAULTS: bad occurrence in '" +
                                  term + "' (need a positive integer)");
    }
    triggers_[kind_index(kind)].insert(*n);
  }
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& t : triggers_) t.clear();
  for (auto& c : counts_) c = 0;
}

bool FaultInjector::armed(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const int k = kind_index(kind);
  return triggers_[k].upper_bound(counts_[k]) != triggers_[k].end();
}

bool FaultInjector::fire(FaultKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int k = kind_index(kind);
  if (triggers_[k].empty()) return false;  // fast path: nothing armed
  const std::int64_t occurrence = ++counts_[k];
  return triggers_[k].count(occurrence) > 0;
}

void FaultInjector::fire_io(const std::string& what) {
  if (fire(FaultKind::kIoFail)) {
    BD_LOG(Warn) << "fault injector: failing I/O at " << what;
    throw std::runtime_error(what + ": injected I/O failure (BDPROTO_FAULTS)");
  }
}

void FaultInjector::fire_crash(const std::string& where) {
  if (fire(FaultKind::kCrash)) {
    BD_LOG(Warn) << "fault injector: simulated crash at " << where;
    throw SimulatedCrash("simulated crash at " + where +
                         " (BDPROTO_FAULTS crash@n)");
  }
}

void FaultInjector::fire_slow_io(const std::string& what) {
  if (fire(FaultKind::kSlowIo)) {
    BD_LOG(Warn) << "fault injector: slowing I/O at " << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

void FaultInjector::fire_oom(const std::string& what) {
  if (fire(FaultKind::kOom)) {
    BD_LOG(Warn) << "fault injector: simulated out-of-memory at " << what;
    throw SimulatedOom();
  }
}

void FaultInjector::fire_crash_worker(const std::string& where) {
  if (fire(FaultKind::kCrashWorker)) {
    BD_LOG(Warn) << "fault injector: SIGKILLing worker at " << where;
    ::raise(SIGKILL);  // no unwinding: the kernel drops the lease
  }
}

}  // namespace bd::robust
