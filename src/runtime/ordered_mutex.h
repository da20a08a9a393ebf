// bd::runtime lock ranking — a debug-build deadlock detector.
//
// Every long-lived mutex in the concurrent subsystems is an
// OrderedMutex<Rank> carrying a rank from the global LockRank table below.
// The table encodes the only permitted acquisition order: a thread may
// acquire a mutex only while every mutex it already holds has a strictly
// LOWER rank. Any two threads that both respect this discipline can never
// deadlock on these mutexes, because a cycle in the waits-for graph would
// require someone to acquire against the order.
//
// In Debug builds (BD_LOCK_RANK_CHECKS=1, wired up by the top-level
// CMakeLists) each thread keeps a small thread-local stack of held ranks;
// lock()/try_lock()/unlock() maintain it and lock() checks the discipline
// before blocking, so an inversion is reported at the acquisition that
// *would* deadlock — deterministically, on every run, not only on the
// unlucky interleaving. In Release builds OrderedMutex compiles to a plain
// std::mutex wrapper with zero added work.
//
// Violations call the installed handler (test hook) or, by default, print
// the held-rank chain to stderr and abort() — a lock-order inversion is a
// bug in the rank table or the code, never a recoverable condition.
//
// The rank table (lowest = outermost, acquired first):
//
//   rank | mutex                                   | acquired while holding
//   -----+-----------------------------------------+-----------------------
//    10  | SocketServer::threads_mutex_            | (nothing; guards the
//         |                                        |  Connection list for
//         |                                        |  BOTH transports — the
//         |                                        |  TCP listener reuses
//         |                                        |  this rank, no new
//         |                                        |  ranks were added)
//    20  | SanitizeService::mutex_                 | (nothing)
//    30  | FairQueue::mutex_                       | service mutex (submit/cancel)
//    40  | BackboneCache::mutex_                   | (nothing; ranked below
//         |                                        |  robust/runtime because a
//         |                                        |  build runs unlocked)
//    50  | Supervisor::mutex_                      | service-level callers
//    70  | runtime pool registry (g_pool_mutex)    | any caller of parallel_for
//    80  | ThreadPool::job_mutex_                  | caller serialization
//    90  | ThreadPool::mutex_                      | job mutex (parallel_for)
//   100  | ThreadPool::error_mutex_                | job mutex (chunk failure)
//   110  | obs::Registry::mutex_                   | any of the above
//         |                                        |  (BD_OBS_* under locks)
//
// Waiting on a condition variable through an OrderedMutex requires
// std::condition_variable_any; its unlock/relock goes through the ranked
// lock()/unlock(), so the held stack stays correct across waits.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#ifndef BD_LOCK_RANK_CHECKS
#define BD_LOCK_RANK_CHECKS 0
#endif

namespace bd::runtime {

enum class LockRank : int {
  kServeServer = 10,
  kServeService = 20,
  kServeQueue = 30,
  kServeBackboneCache = 40,
  kSupervisor = 50,
  kPoolRegistry = 70,
  kPoolJob = 80,
  kPoolState = 90,
  kPoolError = 100,
  kObsRegistry = 110,
};

inline const char* lock_rank_name(int rank) {
  switch (static_cast<LockRank>(rank)) {
    case LockRank::kServeServer: return "serve.server";
    case LockRank::kServeService: return "serve.service";
    case LockRank::kServeQueue: return "serve.queue";
    case LockRank::kServeBackboneCache: return "serve.backbone_cache";
    case LockRank::kSupervisor: return "robust.supervisor";
    case LockRank::kPoolRegistry: return "runtime.pool_registry";
    case LockRank::kPoolJob: return "runtime.pool_job";
    case LockRank::kPoolState: return "runtime.pool_state";
    case LockRank::kPoolError: return "runtime.pool_error";
    case LockRank::kObsRegistry: return "obs.registry";
  }
  return "unknown";
}

namespace lockrank {

/// One inversion: the rank being acquired and the highest rank already
/// held (which is >= it — that is the violation).
struct Violation {
  int acquiring;
  int highest_held;
};

using ViolationHandler = void (*)(const Violation&);

inline std::atomic<ViolationHandler>& violation_handler() {
  static std::atomic<ViolationHandler> handler{nullptr};
  return handler;
}

/// Test hook: replaces abort-on-inversion with `h` (nullptr restores the
/// default). The handler returning means "record and continue".
inline void set_violation_handler(ViolationHandler h) {
  // bdlint:allow(no-relaxed-atomics): the handler pointer is an independent
  // flag installed before threads race; no data is published through it.
  violation_handler().store(h, std::memory_order_relaxed);
}

inline constexpr int kMaxHeld = 16;

struct HeldStack {
  int depth = 0;
  int ranks[kMaxHeld] = {};
};

inline HeldStack& held() {
  thread_local HeldStack stack;
  return stack;
}

/// Highest rank currently held by this thread (0 when none). Acquisition
/// discipline keeps the stack ascending, but scan anyway so the check
/// stays sound after an out-of-order unlock.
inline int highest_held() {
  const HeldStack& s = held();
  int best = 0;
  for (int i = 0; i < s.depth; ++i) {
    if (s.ranks[i] > best) best = s.ranks[i];
  }
  return best;
}

/// Records a blocking acquisition of `rank`, reporting an inversion when
/// some held rank is >= it. Called before blocking so the report fires on
/// the acquisition that would deadlock. Exposed (and compiled) in every
/// build so the detector logic itself stays unit-testable in Release.
inline void note_acquire(int rank) {
  HeldStack& s = held();
  const int top = highest_held();
  if (top >= rank) {
    const Violation v{rank, top};
    // bdlint:allow(no-relaxed-atomics): same independent-flag load.
    if (ViolationHandler h =
            violation_handler().load(std::memory_order_relaxed)) {
      h(v);
    } else {
      std::fprintf(stderr,
                   "bd lock-rank violation: acquiring %s (%d) while holding "
                   "%s (%d); see the rank table in runtime/ordered_mutex.h\n",
                   lock_rank_name(rank), rank, lock_rank_name(top), top);
      std::abort();
    }
  }
  if (s.depth < kMaxHeld) s.ranks[s.depth] = rank;
  ++s.depth;
}

/// Records a successful try_lock of `rank`. Never a violation: try_lock
/// cannot block, so it cannot close a waits-for cycle.
inline void note_try_acquire(int rank) {
  HeldStack& s = held();
  if (s.depth < kMaxHeld) s.ranks[s.depth] = rank;
  ++s.depth;
}

/// Removes the most recent entry for `rank` (unlocks are usually LIFO via
/// RAII guards, but condition-variable waits may release mid-stack).
inline void note_release(int rank) {
  HeldStack& s = held();
  const int tracked = s.depth < kMaxHeld ? s.depth : kMaxHeld;
  for (int i = tracked - 1; i >= 0; --i) {
    if (s.ranks[i] != rank) continue;
    for (int j = i; j + 1 < tracked; ++j) s.ranks[j] = s.ranks[j + 1];
    --s.depth;
    return;
  }
  if (s.depth > 0) --s.depth;  // untracked overflow entry
}

}  // namespace lockrank

/// Drop-in std::mutex replacement carrying a LockRank. Satisfies the
/// Lockable requirements, so std::lock_guard, std::unique_lock,
/// std::scoped_lock and std::condition_variable_any all work unchanged.
template <LockRank Rank>
class OrderedMutex {
 public:
  OrderedMutex() = default;
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() {
#if BD_LOCK_RANK_CHECKS
    lockrank::note_acquire(static_cast<int>(Rank));
#endif
    m_.lock();  // bdlint:allow(no-naked-lock): this IS the RAII-guard target
  }

  void unlock() {
    m_.unlock();  // bdlint:allow(no-naked-lock): guard plumbing, see lock()
#if BD_LOCK_RANK_CHECKS
    lockrank::note_release(static_cast<int>(Rank));
#endif
  }

  bool try_lock() {
    const bool ok = m_.try_lock();
#if BD_LOCK_RANK_CHECKS
    if (ok) lockrank::note_try_acquire(static_cast<int>(Rank));
#endif
    return ok;
  }

  static constexpr LockRank rank() { return Rank; }

 private:
  std::mutex m_;
};

}  // namespace bd::runtime
