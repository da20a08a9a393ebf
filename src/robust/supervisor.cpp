#include "robust/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "util/env.h"
#include "util/logging.h"

namespace bd::robust {

namespace {

using Clock = std::chrono::steady_clock;

thread_local detail::ScopeFrame t_frame;

/// Formats a seconds value the way it was configured (shortest form), so
/// budget reasons depend only on the config — never on measured time —
/// and degraded cells replay byte-identically on resume.
std::string format_seconds(double seconds) {
  std::ostringstream out;
  out << seconds;
  return out.str();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Throws Cancelled when `frame` must stop at `now`: its token was
/// cancelled, it ran past its deadline, or its last poll is older than the
/// stall budget, checked in that order.
void throw_if_stopped(const detail::ScopeFrame& frame, Clock::time_point now,
                      const char* where) {
  if (frame.token.cancelled()) {
    const std::string reason = frame.token.reason();
    throw Cancelled(reason.empty() ? "cancelled by caller" : reason, where);
  }
  if (frame.deadline_seconds > 0.0 &&
      seconds_between(frame.start, now) > frame.deadline_seconds) {
    throw Cancelled("watchdog: deadline of " +
                        format_seconds(frame.deadline_seconds) + "s exceeded",
                    where);
  }
  if (frame.stall_seconds > 0.0 &&
      seconds_between(frame.last_poll, now) > frame.stall_seconds) {
    throw Cancelled("watchdog: heartbeat stalled beyond " +
                        format_seconds(frame.stall_seconds) + "s",
                    where);
  }
}

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

CancelScope::CancelScope(CancelToken token, double deadline_seconds,
                         double stall_seconds)
    : previous_(std::move(t_frame)) {
  const Clock::time_point now = Clock::now();
  t_frame = {std::move(token), now, now, deadline_seconds, stall_seconds};
}

CancelScope::~CancelScope() { t_frame = std::move(previous_); }

CancelToken current_cancel_token() { return t_frame.token; }

void poll_cancellation(const char* where) {
  detail::ScopeFrame& frame = t_frame;
  Clock::time_point now = Clock::now();
  throw_if_stopped(frame, now, where);
  frame.last_poll = now;
  if (FaultInjector::instance().fire(FaultKind::kHang)) {
    // Simulated hang: sit here without polling, as a stalled loop would,
    // until a budget or the token ends it (or a safety cap expires so an
    // unsupervised test cannot wedge).
    BD_LOG(Warn) << "fault injector: simulated hang at " << where;
    const Clock::time_point cap = now + std::chrono::seconds(30);
    while ((now = Clock::now()) < cap) {
      throw_if_stopped(frame, now, where);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
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
      CancelScope scope(external_cancel, config.deadline_seconds, stall);
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
