// Cooperative cancellation for supervised trial execution.
//
// A CancelSource owns the shared cancellation state; CancelTokens are cheap
// handles onto it. Work never gets killed mid-mutation: long-running loops
// call poll_cancellation() at their batch/round boundaries (the same places
// that open the obs epoch/round spans), and every stop is decided there:
// the poll throws Cancelled once the token has been cancelled, the attempt
// has run past its deadline, or the gap since the previous poll exceeds
// the stall budget — so a cancelled loop always unwinds from a consistent
// point with an integer number of optimizer steps applied.
//
// The current token and budgets are installed thread-locally by a
// CancelScope (the Supervisor does this around every attempt), which keeps
// them out of every loop signature: trainer epochs, defense rounds and
// Grad-Prune iterations all share one poll_cancellation() call site per
// boundary. Code running outside any scope polls against a null token and
// no budgets, which never cancels and costs a thread-local read plus a
// steady-clock read.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace bd::robust {

/// Thrown by poll_cancellation() at the first boundary after the scope's
/// token was cancelled or one of its budgets ran out. `reason()` is the
/// token's cancellation reason or the budget's message (e.g. "watchdog:
/// deadline of 1s exceeded"); what() adds the boundary at which the work
/// actually stopped.
class Cancelled : public std::runtime_error {
 public:
  Cancelled(std::string reason, const std::string& where)
      : std::runtime_error(reason + " (observed at " + where + ")"),
        reason_(std::move(reason)) {}

  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

namespace detail {

struct CancelState {
  std::atomic<bool> cancelled{false};
  std::mutex mutex;
  std::string reason;  // set once by the first cancel()
};

}  // namespace detail

/// Cheap copyable handle onto a CancelSource's state. A default-constructed
/// token is null: never cancelled.
class CancelToken {
 public:
  CancelToken() = default;

  bool valid() const { return state_ != nullptr; }

  bool cancelled() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_acquire);
  }

  /// Cancellation reason ("" while not cancelled or for a null token).
  std::string reason() const {
    if (state_ == nullptr) return {};
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->reason;
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancelToken token() const { return CancelToken(state_); }

  /// Requests cooperative cancellation; the first reason wins.
  void cancel(const std::string& reason) {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->reason.empty()) state_->reason = reason;
    }
    state_->cancelled.store(true, std::memory_order_release);
  }

  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

namespace detail {

/// What a CancelScope installs on its thread. Only that thread reads or
/// writes it, so none of it is atomic.
struct ScopeFrame {
  CancelToken token;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point last_poll;
  double deadline_seconds = 0.0;  // 0: no total budget
  double stall_seconds = 0.0;     // 0: no gap budget
};

}  // namespace detail

/// RAII installation of the calling thread's current token and budgets
/// (nesting restores the previous ones). The scope's start is also its
/// first "poll", so the stall budget covers the stretch before the first
/// boundary too. Owned by Supervisor attempts; tests install scopes
/// directly to drive loops without a supervisor.
class CancelScope {
 public:
  explicit CancelScope(CancelToken token, double deadline_seconds = 0.0,
                       double stall_seconds = 0.0);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  detail::ScopeFrame previous_;
};

/// The calling thread's current token (null outside any CancelScope).
CancelToken current_cancel_token();

/// Batch/round-boundary check. Throws Cancelled, in this order, when the
/// current token has been cancelled, the scope has run past its deadline,
/// or the gap since the previous poll exceeds its stall budget; otherwise
/// records this poll's time. An armed `hang@n` fault then sits here, as
/// a stalled loop would, until one of those ends it (or a 30 s cap, so an
/// unsupervised test cannot wedge). `where` must describe the boundary
/// (e.g. "train.batch") and appears in the Cancelled message.
void poll_cancellation(const char* where);

}  // namespace bd::robust
