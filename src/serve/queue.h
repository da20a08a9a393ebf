// Admission-controlled, multi-tenant job queue with round-robin fairness.
//
// Admission enforces two bounds at submit time, before any work is
// enqueued: a global capacity on queued jobs (protects daemon memory) and
// a per-tenant quota on *in-flight* jobs (queued + running), so one noisy
// tenant cannot starve the pool. Both rejections are cheap structured
// errors the client can back off on.
//
// Dispatch is fair, not FIFO: workers pop tenants in sorted order,
// round-robin from a rotating cursor, taking the oldest job of the chosen
// tenant. A tenant with 50 queued jobs and a tenant with 1 therefore
// alternate instead of the deep queue draining first. A popped job keeps
// holding its tenant's quota slot until release(tenant) — quota covers the
// running phase too.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/ordered_mutex.h"

namespace bd::serve {

enum class Admission { kAdmitted, kQueueFull, kQuotaExceeded, kClosed };
const char* admission_name(Admission a);

class FairQueue {
 public:
  FairQueue(std::size_t capacity, std::size_t tenant_quota);

  /// Admission-checked enqueue of `job_id` for `tenant`.
  Admission push(const std::string& tenant, const std::string& job_id);

  /// Blocks until a job is available or the queue is closed and drained
  /// (returns false). The popped job still holds its tenant's quota slot;
  /// call release(tenant) once it reaches a terminal state.
  bool pop(std::string& tenant, std::string& job_id);

  /// Removes a still-queued job (client cancel) and releases its quota
  /// slot. False when the job is no longer queued (already popped).
  bool remove(const std::string& job_id);

  /// Releases the quota slot of one popped job of `tenant`.
  void release(const std::string& tenant);

  std::size_t depth() const;
  std::map<std::string, std::size_t> in_flight_by_tenant() const;

  /// Stops admission; blocked pop() calls drain the remaining jobs and
  /// then return false.
  void close();

  /// Closes the queue AND discards every still-queued job (their quota
  /// slots are released; running jobs are unaffected). Blocked pop()
  /// calls return false immediately. Returns the discarded job ids — the
  /// abandoning stop leaves them journaled as `queued`, which is exactly
  /// the state a crash would have left.
  std::vector<std::string> abandon();

 private:
  mutable runtime::OrderedMutex<runtime::LockRank::kServeQueue> mutex_;
  std::condition_variable_any cv_;
  const std::size_t capacity_;
  const std::size_t quota_;
  bool closed_ = false;
  std::size_t depth_ = 0;
  std::map<std::string, std::deque<std::string>> queued_;  // tenant -> ids
  std::map<std::string, std::size_t> in_flight_;  // tenant -> queued+running
  std::string cursor_;  // tenant served last (fair scan starts after it)
};

}  // namespace bd::serve
