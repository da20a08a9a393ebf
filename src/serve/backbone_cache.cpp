#include "serve/backbone_cache.h"

#include <chrono>

#include "obs/obs.h"
#include "robust/cancel.h"
#include "util/logging.h"

namespace bd::serve {

BackboneCache::BackboneCache(std::size_t capacity) : capacity_(capacity) {
  stats_.capacity = capacity;
}

BackboneCache::Lookup BackboneCache::get_or_build(const std::string& key,
                                                  const Builder& build,
                                                  const WaitPoll& wait_poll) {
  std::promise<BackbonePtr> promise;
  for (;;) {
    std::shared_future<BackbonePtr> pending;
    {
      std::lock_guard lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.second);
        ++stats_.hits;
        BD_OBS_COUNT("serve.cache.hits", 1);
        return {it->second.first, true};
      }
      const auto flight = in_flight_.find(key);
      if (flight == in_flight_.end()) {
        ++stats_.misses;
        BD_OBS_COUNT("serve.cache.misses", 1);
        if (capacity_ > 0) in_flight_[key] = promise.get_future().share();
        break;  // this thread builds
      }
      pending = flight->second;
      ++stats_.hits;
      BD_OBS_COUNT("serve.cache.hits", 1);
    }

    // Join somebody else's build; keep polling while they train.
    while (pending.wait_for(std::chrono::milliseconds(100)) !=
           std::future_status::ready) {
      if (wait_poll) wait_poll();
    }
    if (BackbonePtr joined = pending.get()) return {joined, true};
    // Null: the builder's job was cancelled (see below). Look the key up
    // again, as its builder or as a waiter on a newer build.
  }

  if (capacity_ == 0) return {build(), false};  // caching disabled

  BackbonePtr built;
  try {
    built = build();
  } catch (const robust::Cancelled&) {
    // The builder's job was stopped, which says nothing about the key: its
    // waiters get a null backbone and retry rather than inherit the stop.
    std::lock_guard lock(mutex_);
    promise.set_value(nullptr);
    in_flight_.erase(key);
    throw;
  } catch (...) {
    std::lock_guard lock(mutex_);
    promise.set_exception(std::current_exception());
    in_flight_.erase(key);
    throw;
  }

  {
    std::lock_guard lock(mutex_);
    promise.set_value(built);
    in_flight_.erase(key);
    lru_.push_front(key);
    entries_[key] = {built, lru_.begin()};
    while (entries_.size() > capacity_) {
      const std::string victim = lru_.back();
      lru_.pop_back();
      entries_.erase(victim);
      ++stats_.evictions;
      BD_OBS_COUNT("serve.cache.evictions", 1);
      BD_LOG(Info) << "backbone cache: evicted key=" << victim;
    }
    stats_.size = entries_.size();
    BD_OBS_GAUGE("serve.cache.size", entries_.size());
  }
  return {built, false};
}

BackboneCacheStats BackboneCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace bd::serve
