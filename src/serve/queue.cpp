#include "serve/queue.h"

namespace bd::serve {

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kQueueFull: return "queue_full";
    case Admission::kQuotaExceeded: return "quota_exceeded";
    case Admission::kClosed: return "closed";
  }
  return "unknown";
}

FairQueue::FairQueue(std::size_t capacity, std::size_t tenant_quota)
    : capacity_(capacity > 0 ? capacity : 1),
      quota_(tenant_quota > 0 ? tenant_quota : 1) {}

Admission FairQueue::push(const std::string& tenant,
                          const std::string& job_id) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return Admission::kClosed;
    if (depth_ >= capacity_) return Admission::kQueueFull;
    if (in_flight_[tenant] >= quota_) return Admission::kQuotaExceeded;
    queued_[tenant].push_back(job_id);
    ++in_flight_[tenant];
    ++depth_;
  }
  cv_.notify_one();
  return Admission::kAdmitted;
}

bool FairQueue::pop(std::string& tenant, std::string& job_id) {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return depth_ > 0 || closed_; });
  if (depth_ == 0) return false;  // closed and drained

  // Fair scan: sorted tenants, starting strictly after the cursor,
  // wrapping around; first tenant with queued work wins the slot.
  auto it = queued_.upper_bound(cursor_);
  for (std::size_t scanned = 0; scanned <= queued_.size(); ++scanned) {
    if (it == queued_.end()) it = queued_.begin();
    if (!it->second.empty()) break;
    ++it;
  }
  tenant = it->first;
  job_id = it->second.front();
  it->second.pop_front();
  --depth_;
  cursor_ = tenant;
  if (it->second.empty()) queued_.erase(it);
  return true;
}

bool FairQueue::remove(const std::string& job_id) {
  std::lock_guard lock(mutex_);
  for (auto it = queued_.begin(); it != queued_.end(); ++it) {
    auto& ids = it->second;
    for (auto id = ids.begin(); id != ids.end(); ++id) {
      if (*id != job_id) continue;
      ids.erase(id);
      --depth_;
      auto tenant_slots = in_flight_.find(it->first);
      if (tenant_slots != in_flight_.end() && tenant_slots->second > 0) {
        --tenant_slots->second;
        if (tenant_slots->second == 0) in_flight_.erase(tenant_slots);
      }
      if (ids.empty()) queued_.erase(it);
      return true;
    }
  }
  return false;
}

void FairQueue::release(const std::string& tenant) {
  std::lock_guard lock(mutex_);
  const auto it = in_flight_.find(tenant);
  if (it != in_flight_.end() && it->second > 0) {
    --it->second;
    if (it->second == 0) in_flight_.erase(it);
  }
}

std::size_t FairQueue::depth() const {
  std::lock_guard lock(mutex_);
  return depth_;
}

std::map<std::string, std::size_t> FairQueue::in_flight_by_tenant() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

void FairQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<std::string> FairQueue::abandon() {
  std::vector<std::string> discarded;
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
    for (auto& [tenant, ids] : queued_) {
      for (auto& id : ids) {
        discarded.push_back(std::move(id));
        auto slots = in_flight_.find(tenant);
        if (slots != in_flight_.end() && slots->second > 0) {
          --slots->second;
          if (slots->second == 0) in_flight_.erase(slots);
        }
      }
    }
    queued_.clear();
    depth_ = 0;
  }
  cv_.notify_all();
  return discarded;
}

}  // namespace bd::serve
