// Tests for the debug lock-rank deadlock detector (runtime/ordered_mutex.h).
//
// The lockrank:: bookkeeping functions are compiled in every build, so the
// detector logic is tested directly here regardless of configuration; the
// OrderedMutex wiring (lock/unlock call sites) is additionally exercised
// when BD_LOCK_RANK_CHECKS is active (Debug builds).
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/ordered_mutex.h"

namespace {

using bd::runtime::LockRank;
using bd::runtime::OrderedMutex;
namespace lockrank = bd::runtime::lockrank;

std::vector<lockrank::Violation>& recorded() {
  static std::vector<lockrank::Violation> v;
  return v;
}

void record_violation(const lockrank::Violation& v) {
  recorded().push_back(v);
}

// Installs the recording handler for one test and restores the default
// (abort) afterwards. Each scenario runs on a fresh thread so the
// thread-local held stack starts empty and leaks nothing across tests.
class RecordingHandler {
 public:
  RecordingHandler() {
    recorded().clear();
    lockrank::set_violation_handler(&record_violation);
  }
  ~RecordingHandler() { lockrank::set_violation_handler(nullptr); }
};

void on_fresh_thread(void (*body)()) {
  std::thread t(body);
  t.join();
}

TEST(LockRankApi, AscendingAcquisitionIsClean) {
  RecordingHandler guard;
  on_fresh_thread([] {
    lockrank::note_acquire(static_cast<int>(LockRank::kServeService));
    lockrank::note_acquire(static_cast<int>(LockRank::kServeQueue));
    lockrank::note_acquire(static_cast<int>(LockRank::kObsRegistry));
    lockrank::note_release(static_cast<int>(LockRank::kObsRegistry));
    lockrank::note_release(static_cast<int>(LockRank::kServeQueue));
    lockrank::note_release(static_cast<int>(LockRank::kServeService));
  });
  EXPECT_TRUE(recorded().empty());
}

TEST(LockRankApi, InversionIsReportedAtTheBadAcquire) {
  RecordingHandler guard;
  on_fresh_thread([] {
    lockrank::note_acquire(static_cast<int>(LockRank::kPoolState));
    lockrank::note_acquire(static_cast<int>(LockRank::kPoolJob));  // inverted
    lockrank::note_release(static_cast<int>(LockRank::kPoolJob));
    lockrank::note_release(static_cast<int>(LockRank::kPoolState));
  });
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].acquiring, static_cast<int>(LockRank::kPoolJob));
  EXPECT_EQ(recorded()[0].highest_held,
            static_cast<int>(LockRank::kPoolState));
}

TEST(LockRankApi, SameRankReacquisitionIsAViolation) {
  // Two locks sharing a rank may not nest — that is exactly the ABBA shape
  // the rank table exists to forbid.
  RecordingHandler guard;
  on_fresh_thread([] {
    lockrank::note_acquire(static_cast<int>(LockRank::kServeQueue));
    lockrank::note_acquire(static_cast<int>(LockRank::kServeQueue));
    lockrank::note_release(static_cast<int>(LockRank::kServeQueue));
    lockrank::note_release(static_cast<int>(LockRank::kServeQueue));
  });
  ASSERT_EQ(recorded().size(), 1u);
}

TEST(LockRankApi, MidStackReleaseKeepsCheckSound) {
  // A condition-variable wait releases mid-stack: after releasing the
  // outer rank, acquisitions are judged against what is still held.
  RecordingHandler guard;
  on_fresh_thread([] {
    lockrank::note_acquire(static_cast<int>(LockRank::kServeService));
    lockrank::note_acquire(static_cast<int>(LockRank::kServeQueue));
    lockrank::note_release(static_cast<int>(LockRank::kServeService));
    // kServeQueue (30) is still held, so a lower rank must still report.
    lockrank::note_acquire(static_cast<int>(LockRank::kServeServer));
    lockrank::note_release(static_cast<int>(LockRank::kServeServer));
    lockrank::note_release(static_cast<int>(LockRank::kServeQueue));
  });
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].highest_held,
            static_cast<int>(LockRank::kServeQueue));
}

TEST(LockRankApi, TryAcquireNeverReports) {
  RecordingHandler guard;
  on_fresh_thread([] {
    lockrank::note_acquire(static_cast<int>(LockRank::kPoolState));
    // try_lock cannot block, so it cannot close a waits-for cycle.
    lockrank::note_try_acquire(static_cast<int>(LockRank::kPoolJob));
    lockrank::note_release(static_cast<int>(LockRank::kPoolJob));
    lockrank::note_release(static_cast<int>(LockRank::kPoolState));
  });
  EXPECT_TRUE(recorded().empty());
}

TEST(LockRankApi, OverflowBeyondMaxHeldStaysBalanced) {
  RecordingHandler guard;
  on_fresh_thread([] {
    // Push more than kMaxHeld ranks ascending, then unwind; the depth
    // counter must return to zero without corrupting the tracked slots.
    for (int i = 1; i <= lockrank::kMaxHeld + 4; ++i) {
      lockrank::note_try_acquire(i);
    }
    for (int i = lockrank::kMaxHeld + 4; i >= 1; --i) {
      lockrank::note_release(i);
    }
    lockrank::note_acquire(static_cast<int>(LockRank::kServeServer));
    lockrank::note_release(static_cast<int>(LockRank::kServeServer));
  });
  EXPECT_TRUE(recorded().empty());
}

TEST(LockRankTable, RanksMatchTheDocumentedNestingOrder) {
  // Outer-to-inner as derived from the real call graph; a rank edit that
  // breaks any of these orderings would re-allow a known deadlock shape.
  EXPECT_LT(LockRank::kServeServer, LockRank::kServeService);
  EXPECT_LT(LockRank::kServeService, LockRank::kServeQueue);       // push/remove under service mutex
  EXPECT_LT(LockRank::kServeQueue, LockRank::kServeBackboneCache);
  EXPECT_LT(LockRank::kServeBackboneCache, LockRank::kSupervisor);
  EXPECT_LT(LockRank::kSupervisor, LockRank::kPoolRegistry);
  EXPECT_LT(LockRank::kPoolRegistry, LockRank::kPoolJob);          // registry lock outlives pool dtor
  EXPECT_LT(LockRank::kPoolJob, LockRank::kPoolState);             // run_chunks: job -> state
  EXPECT_LT(LockRank::kPoolState, LockRank::kPoolError);           // first-error capture under job
  EXPECT_LT(LockRank::kPoolError, LockRank::kObsRegistry);         // BD_OBS_* fires under any lock
}

#if BD_LOCK_RANK_CHECKS

TEST(OrderedMutexChecked, GuardedInversionIsDetected) {
  RecordingHandler guard;
  on_fresh_thread([] {
    static OrderedMutex<LockRank::kPoolState> inner;
    static OrderedMutex<LockRank::kPoolJob> outer;
    std::lock_guard hold_inner(inner);
    std::lock_guard hold_outer(outer);  // kPoolJob < kPoolState: inversion
  });
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].acquiring, static_cast<int>(LockRank::kPoolJob));
}

TEST(OrderedMutexChecked, ConditionVariableWaitReleasesTheRank) {
  RecordingHandler guard;
  static OrderedMutex<LockRank::kServeQueue> mutex;
  static std::condition_variable_any cv;
  static bool ready = false;

  std::thread waiter([] {
    std::unique_lock lk(mutex);
    cv.wait(lk, [] { return ready; });
  });
  std::thread signaler([] {
    // If wait() failed to release the ranked mutex through unlock(), this
    // same-rank acquisition would be reported as a violation.
    {
      std::lock_guard lk(mutex);
      ready = true;
    }
    cv.notify_one();
  });
  waiter.join();
  signaler.join();
  EXPECT_TRUE(recorded().empty());
}

#else

TEST(OrderedMutexUnchecked, BehavesAsPlainMutex) {
  OrderedMutex<LockRank::kServeQueue> mutex;
  {
    std::lock_guard lk(mutex);
  }
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();  // bdlint:allow(no-naked-lock): paired with try_lock above
}

#endif  // BD_LOCK_RANK_CHECKS

}  // namespace
