#include "serve/service.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "nn/checkpoint.h"
#include "obs/obs.h"
#include "util/env.h"
#include "util/logging.h"

namespace bd::serve {

namespace {

std::string format_job_id(std::uint64_t n) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "j%06llu",
                static_cast<unsigned long long>(n));
  return buf;
}

/// The counter of a job id "j<digits>", parsed whole (parse_whole,
/// util/env.h); any other id throws std::runtime_error naming the field, as
/// a damaged journal number does.
std::int64_t job_id_number(const std::string& id) {
  const std::optional<std::int64_t> n =
      id.size() > 1 && id[0] == 'j'
          ? parse_whole<std::int64_t>(std::string_view(id).substr(1))
          : std::nullopt;
  if (!n || *n < 0) {
    throw std::runtime_error("journal field 'id' is malformed: '" + id + "'");
  }
  return *n;
}

}  // namespace

SanitizeService::SanitizeService(const ServiceConfig& config)
    : config_(config),
      supervisor_(config.supervisor != nullptr ? config.supervisor
                                               : &robust::Supervisor::instance()),
      queue_(config.queue_capacity, config.tenant_quota),
      cache_(config.cache_capacity) {
  if (!config_.journal_path.empty()) {
    journal_ = robust::RunJournal(config_.journal_path);
    load_journal();
  }
}

SanitizeService::~SanitizeService() { stop(); }

void SanitizeService::load_journal() {
  // std::map iteration = sorted keys; ids are zero-padded, so jobs replay
  // in submit order and a resumed queue is deterministic.
  for (const auto& [key, fields] : journal_.entries()) {
    if (key.rfind("job|", 0) != 0) continue;
    JobRecord rec = decode_job(key, fields);
    if (rec.id.empty()) continue;
    if (!rec.spec.client_job_id.empty()) {
      // Terminal jobs included: a retried submit after restart must get
      // the finished job back, not a fresh enqueue of the same work.
      dedup_[rec.spec.tenant + "|" + rec.spec.client_job_id] = rec.id;
    }
    const auto n = static_cast<std::uint64_t>(job_id_number(rec.id));
    if (n >= next_id_) next_id_ = n + 1;
    ++counters_.submitted;
    if (job_state_terminal(rec.state)) {
      if (rec.state == JobState::kDone) ++counters_.done;
      else if (rec.state == JobState::kFailed) ++counters_.failed;
      else if (rec.state == JobState::kCancelled) ++counters_.cancelled;
      else ++counters_.interrupted;
      records_[rec.id] = std::move(rec);
      continue;
    }
    // Left queued/running by a previous incarnation.
    const std::string was = job_state_name(rec.state);
    if (config_.resume_interrupted) {
      const Admission admission = queue_.push(rec.spec.tenant, rec.id);
      if (admission == Admission::kAdmitted) {
        rec.state = JobState::kQueued;
        rec.error.clear();
        cancels_.emplace(rec.id, robust::CancelSource());
        BD_LOG(Info) << "serve: requeued " << rec.id << " (was " << was << ")";
      } else {
        rec.state = JobState::kInterrupted;
        rec.error = std::string("requeue rejected: ") +
                    admission_name(admission);
        ++counters_.interrupted;
      }
    } else {
      rec.state = JobState::kInterrupted;
      rec.error = "daemon restarted while " + was;
      ++counters_.interrupted;
      BD_LOG(Warn) << "serve: " << rec.id << " interrupted (was " << was
                      << ")";
    }
    journal_locked(rec);
    records_[rec.id] = std::move(rec);
  }
}

void SanitizeService::start() {
  std::lock_guard lock(mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SubmitResult SanitizeService::submit(const JobSpec& spec) {
  validate_tenant(spec.tenant);
  // Throws BadRequest for an unreadable/corrupt model_path checkpoint.
  const std::string cache_key = backbone_cache_key(spec);

  std::lock_guard lock(mutex_);
  if (!spec.client_job_id.empty()) {
    const auto hit = dedup_.find(spec.tenant + "|" + spec.client_job_id);
    if (hit != dedup_.end()) {
      ++counters_.deduplicated;
      BD_OBS_COUNT("serve.jobs.deduplicated", 1);
      SubmitResult result{Admission::kAdmitted, hit->second};
      result.deduplicated = true;
      return result;
    }
  }
  if (stopped_) return {Admission::kClosed, ""};
  const std::string id = format_job_id(next_id_);
  const Admission admission = queue_.push(spec.tenant, id);
  if (admission != Admission::kAdmitted) {
    BD_OBS_COUNT("serve.jobs.rejected", 1);
    return {admission, ""};
  }
  ++next_id_;
  if (!spec.client_job_id.empty()) {
    dedup_[spec.tenant + "|" + spec.client_job_id] = id;
  }
  JobRecord rec;
  rec.id = id;
  rec.spec = spec;
  rec.state = JobState::kQueued;
  rec.cache_key = cache_key;
  cancels_.emplace(id, robust::CancelSource());
  ++counters_.submitted;
  journal_locked(rec);
  records_[id] = std::move(rec);
  BD_OBS_COUNT("serve.jobs.submitted", 1);
  BD_OBS_GAUGE("serve.queue.depth", static_cast<double>(queue_.depth()));
  return {Admission::kAdmitted, id};
}

CancelOutcome SanitizeService::cancel(const std::string& id) {
  std::lock_guard lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return CancelOutcome::kUnknownJob;
  JobRecord& rec = it->second;
  if (job_state_terminal(rec.state)) return CancelOutcome::kAlreadyTerminal;
  if (rec.state == JobState::kQueued && queue_.remove(id)) {
    rec.state = JobState::kCancelled;
    rec.error = "cancelled by client while queued";
    cancels_.erase(id);
    ++counters_.cancelled;
    journal_locked(rec);
    terminal_cv_.notify_all();
    BD_OBS_COUNT("serve.jobs.cancelled", 1);
    return CancelOutcome::kCancelledQueued;
  }
  // Already popped (or running): cooperative cancellation through the
  // supervisor's external token; process_job() records it as kCancelled.
  const auto c = cancels_.find(id);
  if (c != cancels_.end()) c->second.cancel("cancelled by client");
  return CancelOutcome::kSignalled;
}

bool SanitizeService::status(const std::string& id, JobRecord& out) const {
  std::lock_guard lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  out = it->second;
  return true;
}

std::vector<JobRecord> SanitizeService::jobs(const std::string& tenant) const {
  std::lock_guard lock(mutex_);
  std::vector<JobRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) {
    if (!tenant.empty() && rec.spec.tenant != tenant) continue;
    out.push_back(rec);
  }
  return out;
}

WaitOutcome SanitizeService::wait(const std::string& id,
                                  double timeout_seconds) const {
  std::unique_lock lock(mutex_);
  if (records_.find(id) == records_.end()) return WaitOutcome::kUnknown;
  const auto terminal = [&] {
    const auto it = records_.find(id);
    return it != records_.end() && job_state_terminal(it->second.state);
  };
  // stop_complete_ also satisfies the wait: an abandoned job will never
  // turn terminal, and a transport thread blocked here must not hang the
  // daemon's shutdown.
  const auto pred = [&] { return stop_complete_ || terminal(); };
  if (timeout_seconds <= 0.0) {
    terminal_cv_.wait(lock, pred);
  } else {
    terminal_cv_.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds), pred);
  }
  return terminal() ? WaitOutcome::kTerminal : WaitOutcome::kTimeout;
}

void SanitizeService::drain() const {
  std::unique_lock lock(mutex_);
  terminal_cv_.wait(lock, [this] {
    if (stop_complete_) return true;  // abandoned jobs never turn terminal
    for (const auto& [id, rec] : records_) {
      if (!job_state_terminal(rec.state)) return false;
    }
    return true;
  });
}

void SanitizeService::stop(StopMode mode) {
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (mode == StopMode::kAbandon) {
    // Clear the queue; workers finish their current job and exit. The
    // discarded jobs stay journaled as `queued`, so the next incarnation
    // reports them `interrupted` — the same states a crash would leave.
    const std::vector<std::string> discarded = queue_.abandon();
    if (!discarded.empty()) {
      BD_LOG(Warn) << "serve: abandoning " << discarded.size()
                   << " queued job(s); a restart reports them interrupted";
    }
  } else {
    queue_.close();  // workers drain the remaining queued jobs, then exit
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard lock(mutex_);
    stop_complete_ = true;
  }
  terminal_cv_.notify_all();
}

ServiceStats SanitizeService::stats() const {
  ServiceStats out;
  {
    std::lock_guard lock(mutex_);
    out = counters_;
    out.running = running_;
  }
  out.queue_depth = queue_.depth();
  out.cache = cache_.stats();
  return out;
}

void SanitizeService::journal_locked(const JobRecord& record) {
  journal_.record("job|" + record.id, encode_job(record));
}

void SanitizeService::worker_loop() {
  std::string tenant;
  std::string id;
  while (queue_.pop(tenant, id)) {
    process_job(id);
    queue_.release(tenant);
    BD_OBS_GAUGE("serve.queue.depth", static_cast<double>(queue_.depth()));
  }
}

void SanitizeService::process_job(const std::string& id) {
  JobSpec spec;
  std::string cache_key;
  robust::CancelToken token;
  {
    std::lock_guard lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end() || it->second.state != JobState::kQueued) return;
    JobRecord& rec = it->second;
    rec.state = JobState::kRunning;
    ++running_;
    journal_locked(rec);
    spec = rec.spec;
    cache_key = rec.cache_key;
    const auto c = cancels_.find(id);
    if (c != cancels_.end()) token = c->second.token();
  }
  BD_OBS_COUNT("serve.jobs.dispatched", 1);
  BD_OBS_SPAN_ARG("serve.job", job_id_number(id));

  const eval::ExperimentScale scale = job_scale(spec);
  // Quarantine key: the configuration, not the job — repeated failures of
  // one (backbone, defense, spc) combination strike it out, fresh jobs for
  // other configurations keep running.
  const std::string run_key = "serve|" + cache_key + "|" + spec.defense +
                              "|" + std::to_string(spec.spc);

  bool cache_hit = false;
  eval::BackdoorMetrics metrics;
  defense::DefenseResult info;

  const auto attempt = [&] {
    const BackboneCache::Lookup lookup = cache_.get_or_build(
        cache_key,
        [&]() -> BackboneCache::BackbonePtr {
          return std::make_shared<const eval::BackdooredModel>(
              eval::prepare_backdoored_model(spec.dataset, spec.arch,
                                             spec.attack, scale, spec.seed));
        },
        [] { robust::poll_cancellation("serve.cache.wait"); });
    cache_hit = lookup.hit;

    std::map<std::string, Tensor> override_state;
    eval::SanitizeRequest req;
    req.defense = spec.defense;
    req.spc = spec.spc;
    // The trial seed `bdctl defend` derives too: jobs with identical specs
    // produce bit-identical reports and checkpoints, served or not.
    req.seed = spec.seed ^ eval::kTrialSeedSalt;
    req.keep_model = !spec.out_path.empty();
    if (!spec.model_path.empty()) {
      override_state = nn::load_state(spec.model_path);
      req.state_override = &override_state;
    }
    eval::SanitizeOutcome out =
        eval::run_sanitization(*lookup.backbone, req, scale);
    if (!spec.out_path.empty() && out.model != nullptr) {
      nn::save_checkpoint(*out.model, spec.out_path);
    }
    metrics = out.metrics;
    info = out.info;
  };

  robust::RunReport report;
  try {
    report = supervisor_->run(run_key, attempt, token);
  } catch (const std::exception& e) {
    // A simulated crash (or any non-retryable escape) must not take the
    // daemon down with it; the job fails, the pool keeps serving.
    report.status = robust::RunStatus::kFailed;
    report.attempts = report.attempts > 0 ? report.attempts : 1;
    report.failure = e.what();
  }

  {
    std::lock_guard lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) return;
    JobRecord& rec = it->second;
    --running_;
    rec.attempts = report.attempts;
    rec.cache_hit = cache_hit;
    if (report.ok()) {
      rec.state = JobState::kDone;
      rec.have_metrics = true;
      rec.metrics = metrics;
      rec.seconds = info.seconds;
      rec.pruned_units = info.pruned_units;
      ++counters_.done;
      BD_OBS_COUNT("serve.jobs.done", 1);
    } else if (report.externally_cancelled) {
      rec.state = JobState::kCancelled;
      rec.error = report.failure.empty() ? "cancelled by client"
                                         : report.failure;
      ++counters_.cancelled;
      BD_OBS_COUNT("serve.jobs.cancelled", 1);
    } else {
      rec.state = JobState::kFailed;
      rec.error = report.failure.empty() ? "failed" : report.failure;
      ++counters_.failed;
      BD_OBS_COUNT("serve.jobs.failed", 1);
    }
    cancels_.erase(id);
    journal_locked(rec);
  }
  terminal_cv_.notify_all();
}

}  // namespace bd::serve
