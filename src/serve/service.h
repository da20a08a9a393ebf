// SanitizeService: the daemon core behind `bdctl serve`, independent of
// any transport so tests and the saturation bench drive it in-process.
//
// A submitted job passes admission control (FairQueue: bounded depth +
// per-tenant in-flight quota), is journaled as `queued`, and waits for a
// worker. Each worker runs its job under the robust::Supervisor — the same
// budget/retry/quarantine policy as batch benches — with a per-job
// external cancel token so clients can cancel running work cooperatively.
// The expensive backbone (poisoned training run) is shared across jobs
// through a single-flight LRU cache keyed by the FNV-1a config hash.
//
// Every state transition (queued → running → done/failed/cancelled) is
// appended to the run journal under "job|<id>", latest record wins. A
// restarted daemon reloads the journal: terminal jobs are reported as-is,
// jobs a previous incarnation left queued/running are either marked
// `interrupted` (default: report, don't silently redo side effects) or
// deterministically requeued in submit order (resume_interrupted).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "robust/cancel.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "serve/backbone_cache.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "runtime/ordered_mutex.h"

namespace bd::serve {

struct ServiceConfig {
  std::size_t workers = 2;
  std::size_t queue_capacity = 16;  // queued jobs, globally
  std::size_t tenant_quota = 4;     // queued + running jobs per tenant
  std::size_t cache_capacity = 4;   // cached backbones (0 = no cache)
  /// Journal path ("" disables journaling; restart then reports nothing).
  std::string journal_path;
  /// Requeue jobs a previous incarnation left queued/running instead of
  /// marking them interrupted.
  bool resume_interrupted = false;
  /// Supervisor running every job (nullptr = Supervisor::instance(),
  /// configured from BDPROTO_DEADLINE / BDPROTO_STALL / BDPROTO_RETRIES).
  robust::Supervisor* supervisor = nullptr;
};

struct SubmitResult {
  Admission admission = Admission::kAdmitted;
  std::string id;            // set when admitted (or deduplicated)
  bool deduplicated = false; // an idempotent retry matched an existing job
};

/// How a stop winds down outstanding work. kDrain finishes every queued
/// job before returning; kAbandon stops the workers after their current
/// job, leaving queued jobs journaled as `queued` so a restart reports
/// them `interrupted` — byte-identical to what a crash would leave.
enum class StopMode { kDrain, kAbandon };

enum class CancelOutcome {
  kCancelledQueued,  // removed before a worker picked it up
  kSignalled,        // running; cooperative cancellation requested
  kUnknownJob,
  kAlreadyTerminal,
};

/// Result of a bounded wait for a job's terminal state.
enum class WaitOutcome {
  kTerminal,  // the job reached done/failed/cancelled/interrupted
  kTimeout,   // known job, still in flight when the budget expired
  kUnknown,   // no such job id
};

struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t done = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t interrupted = 0;  // loaded from a previous incarnation
  std::int64_t deduplicated = 0; // idempotent retries matched to a job
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  BackboneCacheStats cache;
};

class SanitizeService {
 public:
  explicit SanitizeService(const ServiceConfig& config);
  ~SanitizeService();

  SanitizeService(const SanitizeService&) = delete;
  SanitizeService& operator=(const SanitizeService&) = delete;

  /// Spawns the worker pool (idempotent). The constructor does NOT start
  /// workers, so restart state can be inspected before any job runs.
  void start();

  /// Validates + admits `spec`. Throws BadRequest on invalid content
  /// (including an unreadable model_path checkpoint).
  SubmitResult submit(const JobSpec& spec);

  CancelOutcome cancel(const std::string& id);

  /// Snapshot of one job; false when the id is unknown.
  bool status(const std::string& id, JobRecord& out) const;

  /// All jobs in submit order, optionally filtered by tenant.
  std::vector<JobRecord> jobs(const std::string& tenant = "") const;

  /// Blocks until `id` reaches a terminal state, the timeout expires, or
  /// the service stops (reported as kTimeout so transport threads never
  /// hang a shutdown). timeout_seconds <= 0 waits without a bound.
  WaitOutcome wait(const std::string& id, double timeout_seconds = 0.0) const;

  /// Blocks until no job is queued or running.
  void drain() const;

  /// Stops admission and joins the workers. kDrain finishes every queued
  /// job first; kAbandon clears the queue (jobs stay journaled as
  /// `queued`, so a restart reports them `interrupted` — exactly the
  /// states a crash would have left).
  void stop(StopMode mode = StopMode::kDrain);

  ServiceStats stats() const;
  std::map<std::string, std::size_t> tenant_load() const {
    return queue_.in_flight_by_tenant();
  }

 private:
  void load_journal();
  void worker_loop();
  void process_job(const std::string& id);
  void journal_locked(const JobRecord& record);

  ServiceConfig config_;
  robust::Supervisor* supervisor_;
  FairQueue queue_;
  BackboneCache cache_;
  robust::RunJournal journal_;

  mutable runtime::OrderedMutex<runtime::LockRank::kServeService> mutex_;
  mutable std::condition_variable_any terminal_cv_;
  std::map<std::string, JobRecord> records_;  // id -> latest state
  /// Idempotency index: "tenant|client_id" -> job id, rebuilt from the
  /// journal on load (terminal jobs included, so a retry after restart
  /// returns the finished job instead of re-enqueueing it).
  std::map<std::string, std::string> dedup_;
  std::map<std::string, robust::CancelSource> cancels_;
  std::uint64_t next_id_ = 1;
  std::size_t running_ = 0;
  ServiceStats counters_;

  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopped_ = false;
  bool stop_complete_ = false;  // workers joined; waiters must not block
};

}  // namespace bd::serve
