#include "runtime/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"
#include "util/env.h"

// bdlint:allow-file(no-relaxed-atomics): chunk distribution counters, and
// job_seq_/active_ where they change under mutex_, need no ordering of
// their own: publication of job fields and chunk results is ordered by
// mutex_ and the acq_rel done_chunks_ handshake below.

namespace bd::runtime {

namespace {

thread_local bool t_in_parallel = false;

// Marks the calling thread as inside a parallel region for its lifetime;
// nested parallel_for calls observe the flag and run serially.
class RegionGuard {
 public:
  RegionGuard() : prev_(t_in_parallel) { t_in_parallel = true; }
  ~RegionGuard() { t_in_parallel = prev_; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

 private:
  bool prev_;
};

// Runs [begin, end) as one call on the calling thread.
void run_serial(std::int64_t begin, std::int64_t end, ChunkFn fn, void* ctx) {
  RegionGuard guard;
  fn(ctx, begin, end);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `ready` for up to kSpinWindow, yielding the core between rounds of
// polls (a thread that shares it may be the one to make `ready` true);
// true once it holds. A caller whose spin runs out blocks instead, on the
// mutex or a condition variable, so the spin only saves the wake-up and
// decides nothing.
template <typename Ready>
bool spin_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    for (int i = 0; i < 64; ++i) {  // a clock read per 64 polls
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

// Takes `m`, polling try_lock for up to kSpinWindow before blocking. The
// pool's critical sections are a few stores, so a hand-off that meets the
// lock held waits nanoseconds instead of sleeping in the kernel.
template <typename Mutex>
std::unique_lock<Mutex> lock_spinning(Mutex& m) {
  std::unique_lock lk(m, std::try_to_lock);
  if (lk.owns_lock() || spin_until([&] { return lk.try_lock(); })) return lk;
  return std::unique_lock(m);
}

}  // namespace

bool in_parallel_region() { return t_in_parallel; }

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mutex_);
    stop_ = true;
    job_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    spin_until(
        [&] { return job_seq_.load(std::memory_order_acquire) != seen; });
    {
      auto lk = lock_spinning(mutex_);
      const auto posted = [&] {
        return job_seq_.load(std::memory_order_relaxed) != seen;
      };
      if (!posted()) {
        ++parked_;
        cv_start_.wait(lk, posted);
        --parked_;
      }
      if (stop_) return;
      seen = job_seq_.load(std::memory_order_relaxed);
      active_.fetch_add(1, std::memory_order_relaxed);
    }
    run_chunks();
    {
      const auto lk = lock_spinning(mutex_);
      active_.fetch_sub(1, std::memory_order_release);
    }
    cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks() {
  RegionGuard guard;
  for (;;) {
    const std::int64_t k = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (k >= chunks_.count) break;
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        fn_(ctx_, chunks_.lo(k), chunks_.lo(k + 1));
      } catch (...) {
        {
          std::lock_guard lk(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    done_chunks_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              std::int64_t grain, ChunkFn fn, void* ctx) {
  if (end <= begin) return;
  const ChunkSplit split =
      split_chunks(begin, end, std::max<std::int64_t>(1, grain));
  if (t_in_parallel || workers_.empty() || split.count == 1) {
    run_serial(begin, end, fn, ctx);
    return;
  }

  std::lock_guard job_lock(job_mutex_);
  const auto idle = [&] {
    return active_.load(std::memory_order_acquire) == 0;
  };
  // A straggler from the previous job may still be inside run_chunks; the
  // (non-atomic) job fields change only once it has left.
  spin_until(idle);
  bool wake = false;
  {
    auto lk = lock_spinning(mutex_);
    cv_done_.wait(lk, idle);
    fn_ = fn;
    ctx_ = ctx;
    chunks_ = split;
    next_chunk_.store(0, std::memory_order_relaxed);
    done_chunks_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    job_seq_.fetch_add(1, std::memory_order_release);
    wake = parked_ > 0;
  }
  if (wake) {
    BD_OBS_COUNT("runtime.worker_wakeups", 1);
    cv_start_.notify_all();
  }
  run_chunks();
  const auto done = [&] {
    return done_chunks_.load(std::memory_order_acquire) == split.count;
  };
  if (!spin_until(done)) {
    std::unique_lock lk(mutex_);
    cv_done_.wait(lk, done);
  }
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

namespace {

OrderedMutex<LockRank::kPoolRegistry> g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
int g_override = 0;  // 0 = no override, use the environment default

int desired_threads_locked() {
  return g_override > 0 ? g_override : bd::thread_count();
}

ThreadPool* pool_locked() {
  const int want = desired_threads_locked();
  if (!g_pool || g_pool->thread_count() != want) {
    g_pool = std::make_unique<ThreadPool>(want);
  }
  return g_pool.get();
}

}  // namespace

int thread_count() {
  std::lock_guard lk(g_pool_mutex);
  return desired_threads_locked();
}

void set_thread_count(int n) {
  std::lock_guard lk(g_pool_mutex);
  g_override = n > 0 ? n : 0;
  g_pool.reset();  // rebuilt lazily by the next parallel_for
}

void parallel_for_impl(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, ChunkFn fn, void* ctx) {
  if (end <= begin) return;
  grain = std::max<std::int64_t>(1, grain);
  if (t_in_parallel) {
    // Nested region: run serially without touching the pool lock.
    BD_OBS_COUNT("runtime.jobs_nested", 1);
    run_serial(begin, end, fn, ctx);
    return;
  }
  BD_OBS_COUNT("runtime.jobs", 1);
  BD_OBS_COUNT("runtime.chunks", split_chunks(begin, end, grain).count);
  BD_OBS_COUNT("runtime.items", end - begin);
  ThreadPool* pool;
  {
    std::lock_guard lk(g_pool_mutex);
    pool = pool_locked();
  }
  pool->parallel_for(begin, end, grain, fn, ctx);
}

}  // namespace bd::runtime
