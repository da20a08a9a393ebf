#include "robust/supervisor.h"

#include "runtime/ordered_mutex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "util/env.h"
#include "util/logging.h"

namespace bd::robust {

namespace {

thread_local CancelToken t_current_token;

/// Formats a seconds value the way it was configured (shortest form), so
/// watchdog reasons depend only on the config — never on measured time —
/// and degraded cells replay byte-identically on resume.
std::string format_seconds(double seconds) {
  std::ostringstream out;
  out << seconds;
  return out.str();
}

/// Background thread that cancels `source` when the attempt overruns its
/// deadline or its heartbeat goes stale. Join-on-destruction RAII; spawned
/// only when at least one budget is configured.
class Watchdog {
 public:
  Watchdog(CancelSource& source, double deadline_seconds, double stall_seconds,
           CancelToken external)
      : source_(source),
        deadline_seconds_(deadline_seconds),
        stall_seconds_(stall_seconds),
        external_(std::move(external)),
        start_(std::chrono::steady_clock::now()) {
    thread_ = std::thread([this] { watch(); });
  }

  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch() {
    // Poll at ~1/8 of the tightest budget so detection lands well within
    // one budget interval, clamped to [1ms, 250ms]. With only an external
    // token to watch there is no budget to subdivide; 50ms keeps client
    // cancellation snappy without spinning.
    double tightest = 0.0;
    if (deadline_seconds_ > 0.0) tightest = deadline_seconds_;
    if (stall_seconds_ > 0.0 &&
        (tightest == 0.0 || stall_seconds_ < tightest)) {
      tightest = stall_seconds_;
    }
    const auto interval =
        tightest > 0.0
            ? std::chrono::milliseconds(std::clamp(
                  static_cast<long long>(tightest * 1000.0 / 8.0), 1LL,
                  250LL))
            : std::chrono::milliseconds(50);

    std::unique_lock lock(mutex_);
    while (!done_) {
      cv_.wait_for(lock, interval);
      if (done_) return;
      if (external_.valid() && external_.cancelled()) {
        source_.cancel(external_.reason().empty() ? "cancelled by caller"
                                                  : external_.reason());
        return;
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      if (deadline_seconds_ > 0.0 && elapsed > deadline_seconds_) {
        source_.cancel("watchdog: deadline of " +
                       format_seconds(deadline_seconds_) + "s exceeded");
        return;
      }
      if (stall_seconds_ > 0.0 &&
          source_.heartbeat_age_seconds() > stall_seconds_) {
        source_.cancel("watchdog: heartbeat stalled beyond " +
                       format_seconds(stall_seconds_) + "s");
        return;
      }
    }
  }

  CancelSource& source_;
  const double deadline_seconds_;
  const double stall_seconds_;
  const CancelToken external_;
  const std::chrono::steady_clock::time_point start_;
  std::thread thread_;
  runtime::OrderedMutex<runtime::LockRank::kSupervisorWatchdog> mutex_;
  std::condition_variable_any cv_;
  bool done_ = false;
};

SupervisorConfig config_from_env() {
  SupervisorConfig config;
  if (const auto d = env_double("BDPROTO_DEADLINE")) {
    config.deadline_seconds = std::max(0.0, *d);
  }
  if (const auto s = env_double("BDPROTO_STALL")) {
    config.stall_seconds = std::max(0.0, *s);
  }
  if (const auto r = env_int("BDPROTO_RETRIES")) {
    config.max_retries = std::max<int>(0, static_cast<int>(*r));
  }
  return config;
}

}  // namespace

namespace detail {

std::uint64_t cancel_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

CancelScope::CancelScope(CancelToken token) : previous_(t_current_token) {
  t_current_token = std::move(token);
}

CancelScope::~CancelScope() { t_current_token = previous_; }

CancelToken current_cancel_token() { return t_current_token; }

void poll_cancellation(const char* where) {
  const CancelToken& token = t_current_token;
  token.heartbeat();
  auto& faults = FaultInjector::instance();
  if (faults.fire(FaultKind::kHang)) {
    // Simulated hang: sit here heartbeat-silent until the watchdog cancels
    // us (or a safety cap expires so an unsupervised test cannot wedge).
    BD_LOG(Warn) << "fault injector: simulated hang at " << where;
    const auto start = std::chrono::steady_clock::now();
    while (!token.cancelled() &&
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
                   .count() < 30.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (token.cancelled()) throw Cancelled(token.reason(), where);
}

Supervisor& Supervisor::instance() {
  static Supervisor supervisor(config_from_env());
  return supervisor;
}

SupervisorConfig Supervisor::config() const {
  std::lock_guard lock(mutex_);
  return config_;
}

void Supervisor::configure(const SupervisorConfig& config) {
  std::lock_guard lock(mutex_);
  config_ = config;
  stats_ = SupervisorStats{};
  strikes_.clear();
  last_failure_.clear();
}

void Supervisor::reset() {
  std::lock_guard lock(mutex_);
  stats_ = SupervisorStats{};
  strikes_.clear();
  last_failure_.clear();
}

bool Supervisor::quarantined(const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = strikes_.find(key);
  return it != strikes_.end() && it->second >= config_.quarantine_strikes;
}

int Supervisor::strikes(const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = strikes_.find(key);
  return it == strikes_.end() ? 0 : it->second;
}

SupervisorStats Supervisor::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

RunReport Supervisor::run(const std::string& key,
                          const std::function<void()>& fn,
                          CancelToken external_cancel) {
  SupervisorConfig config;
  {
    std::lock_guard lock(mutex_);
    config = config_;
    const auto it = strikes_.find(key);
    if (it != strikes_.end() && it->second >= config_.quarantine_strikes) {
      ++stats_.refused;
      RunReport report;
      report.status = RunStatus::kQuarantined;
      report.failure = "quarantined after " + std::to_string(it->second) +
                       " strikes (last: " + last_failure_[key] + ")";
      return report;
    }
    ++stats_.runs;
  }
  BD_OBS_COUNT("supervisor.runs", 1);

  const double stall = config.stall_seconds > 0.0 ? config.stall_seconds
                                                  : config.deadline_seconds;
  RunReport report;
  for (int attempt = 1; attempt <= 1 + config.max_retries; ++attempt) {
    if (external_cancel.valid() && external_cancel.cancelled()) {
      report.externally_cancelled = true;
      report.failure = external_cancel.reason().empty()
                           ? "cancelled by caller"
                           : external_cancel.reason();
      break;
    }
    if (attempt > 1) {
      const double backoff =
          config.backoff_initial_seconds *
          std::pow(config.backoff_factor, static_cast<double>(attempt - 2));
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      {
        std::lock_guard lock(mutex_);
        ++stats_.retries;
      }
      BD_OBS_COUNT("supervisor.retries", 1);
      BD_LOG(Warn) << "supervisor: retrying '" << key << "' (attempt "
                   << attempt << "/" << 1 + config.max_retries
                   << "): " << report.failure;
    }
    report.attempts = attempt;
    try {
      CancelSource source;
      CancelScope scope(source.token());
      std::optional<Watchdog> watchdog;
      if (config.deadline_seconds > 0.0 || stall > 0.0 ||
          external_cancel.valid()) {
        watchdog.emplace(source, config.deadline_seconds, stall,
                         external_cancel);
      }
      fn();
      report.status = RunStatus::kOk;
      report.failure.clear();
      std::lock_guard lock(mutex_);
      strikes_.erase(key);
      last_failure_.erase(key);
      return report;
    } catch (const SimulatedCrash&) {
      throw;  // models a process kill: no in-process retry
    } catch (const Cancelled& e) {
      report.failure = e.what();
      if (external_cancel.valid() && external_cancel.cancelled()) {
        // Client-requested stop: not the configuration's fault, so no
        // strike, no retry — report it and let the caller record the
        // cancellation.
        report.externally_cancelled = true;
        break;
      }
      report.timed_out = true;
      std::lock_guard lock(mutex_);
      ++stats_.timeouts;
      BD_OBS_COUNT("supervisor.timeouts", 1);
    } catch (const std::invalid_argument& e) {
      // Permanent: an unknown name or a malformed value fails the same way
      // on every attempt, so no retry, no backoff and no strike.
      report.failure = e.what();
      break;
    } catch (const std::exception& e) {
      report.failure = e.what();
    }

    std::lock_guard lock(mutex_);
    const int strikes = ++strikes_[key];
    last_failure_[key] = report.failure;
    if (strikes >= config.quarantine_strikes) {
      ++stats_.quarantines;
      BD_OBS_COUNT("supervisor.quarantines", 1);
      BD_LOG(Warn) << "supervisor: quarantining '" << key << "' after "
                   << strikes << " strikes: " << report.failure;
      report.status = RunStatus::kQuarantined;
      return report;
    }
  }

  report.status = RunStatus::kFailed;
  {
    std::lock_guard lock(mutex_);
    if (report.externally_cancelled) {
      ++stats_.cancelled;
    } else {
      ++stats_.failures;
    }
  }
  BD_OBS_COUNT(report.externally_cancelled ? "supervisor.cancelled"
                                           : "supervisor.failures",
               1);
  return report;
}

}  // namespace bd::robust
