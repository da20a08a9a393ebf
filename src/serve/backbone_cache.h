// LRU cache of trained backbones (the expensive half of a sanitization
// job: synthetic datasets + trigger + poisoned training), keyed by the
// FNV-1a backbone cache key from serve/job.h.
//
// Builds are single-flight: the first worker to miss on a key trains the
// backbone on its own thread while later workers for the same key wait on
// a shared future instead of duplicating the training run. Waiters pass a
// wait-poll hook that is invoked between bounded waits, so a supervised
// waiter keeps polling its own cancel token and budgets while somebody
// else trains. A build whose job was cancelled fails nobody else: its
// waiters take the lookup again.
//
// Entries are shared_ptr<const BackdooredModel>: a cache eviction never
// invalidates a backbone a running job is still using.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "eval/runner.h"
#include "runtime/ordered_mutex.h"

namespace bd::serve {

struct BackboneCacheStats {
  std::int64_t hits = 0;        // served from cache or joined an in-flight build
  std::int64_t misses = 0;      // builds actually executed
  std::int64_t evictions = 0;
  std::size_t size = 0;
  std::size_t capacity = 0;
};

class BackboneCache {
 public:
  using BackbonePtr = std::shared_ptr<const eval::BackdooredModel>;
  using Builder = std::function<BackbonePtr()>;
  using WaitPoll = std::function<void()>;

  /// Capacity 0 disables caching (every lookup builds, nothing is stored).
  explicit BackboneCache(std::size_t capacity);

  struct Lookup {
    BackbonePtr backbone;
    bool hit = false;
  };

  /// Returns the cached backbone for `key`, joins an in-flight build of
  /// it, or runs `build` on the calling thread and caches the result.
  /// `build` exceptions propagate to the builder AND every waiter, except
  /// robust::Cancelled: a waiter whose joined build was cancelled looks
  /// the key up again, as its builder or as a waiter on a newer build.
  /// `wait_poll` (may be null) runs every ~100ms while waiting.
  Lookup get_or_build(const std::string& key, const Builder& build,
                      const WaitPoll& wait_poll = nullptr);

  BackboneCacheStats stats() const;

 private:
  using LruList = std::list<std::string>;  // front = most recently used

  mutable runtime::OrderedMutex<runtime::LockRank::kServeBackboneCache> mutex_;
  const std::size_t capacity_;
  LruList lru_;
  std::map<std::string, std::pair<BackbonePtr, LruList::iterator>> entries_;
  std::map<std::string, std::shared_future<BackbonePtr>> in_flight_;
  BackboneCacheStats stats_;
};

}  // namespace bd::serve
