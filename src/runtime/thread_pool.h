// bd::runtime — deterministic parallel runtime for the tensor engine.
//
// A persistent, lazily-initialized pool of worker threads exposing
// parallel_for(begin, end, grain, fn) over index ranges.
//
// Determinism contract: [begin, end) is split into ceil(n / grain) chunks
// whose sizes differ by at most one (split_chunks). The boundaries depend
// only on (begin, end, grain), never on the worker count, and every chunk
// runs the same serial body. Callers must keep per-index work disjoint (no
// shared float accumulators across chunks); any cross-chunk reduction is
// done by the caller afterwards in chunk order. Under that contract
// results are bitwise identical for every value of BDPROTO_THREADS, and
// BDPROTO_THREADS=1 runs each call as one chunk, the legacy serial path.
//
// Hand-off: a worker that finishes a job spins on the job sequence for
// kSpinWindow before it parks on a condition variable, and a caller
// waiting for workers spins as long before it sleeps. So kernels that
// follow each other within the window pass work to the workers, and back,
// without a futex wake-up, and a pool that goes idle parks within it.
//
// Thread-count resolution: set_thread_count() override (test/bench hook),
// else BDPROTO_THREADS, else hardware_concurrency; always clamped to >= 1.
// A count of 1 spawns no workers and runs everything inline. Nested
// parallel_for calls (from inside a running chunk) execute serially on the
// calling thread. Exceptions thrown by the body are captured and the first
// one is rethrown at the parallel_for call site.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/ordered_mutex.h"

namespace bd::runtime {

/// How long a worker that finished a job keeps looking for the next one,
/// and a caller for its workers, before sleeping. In a perfbench
/// `table_vgg` cell (2 engine threads, 4-vCPU host) the gap from the end
/// of one split job to the start of the next was 25 us at the median,
/// 100 us at p95 and at most 200 us for 99.6% of 77 838 gaps. Bounded, so
/// an idle pool burns at most one window per worker before it parks:
/// processes sharing the host's cores lose no more than that.
inline constexpr std::chrono::microseconds kSpinWindow{200};

/// The chunks of [begin, end) for `grain`: ceil(n / grain) of them, the
/// first `extra` one index longer than the rest, so sizes differ by at most
/// one and none exceeds the grain. Chunk k is [lo(k), lo(k + 1)).
struct ChunkSplit {
  std::int64_t begin = 0, count = 0, size = 0, extra = 0;

  std::int64_t lo(std::int64_t k) const {
    return begin + k * size + std::min(k, extra);
  }
};

/// The ChunkSplit of a non-empty [begin, end) for grain >= 1.
inline ChunkSplit split_chunks(std::int64_t begin, std::int64_t end,
                               std::int64_t grain) {
  const std::int64_t n = end - begin, count = (n + grain - 1) / grain;
  return {begin, count, n / count, n % count};
}

/// Chunk body: processes [chunk_begin, chunk_end) with `ctx` as closure state.
using ChunkFn = void (*)(void* ctx, std::int64_t chunk_begin,
                         std::int64_t chunk_end);

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller participates as the last one).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return threads_; }

  /// Runs fn over the split_chunks of [begin, end); blocks until done.
  /// Rethrows the first exception raised by a chunk. Chunk boundaries are
  /// independent of the worker count (see determinism contract above).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    ChunkFn fn, void* ctx);

 private:
  void worker_loop();
  void run_chunks();

  const int threads_;
  std::vector<std::thread> workers_;

  // Serializes concurrent parallel_for callers (one job at a time).
  OrderedMutex<LockRank::kPoolJob> job_mutex_;

  // Job state; mutated only under mutex_ while no worker is inside
  // run_chunks (active_ == 0). condition_variable_any because the mutex is
  // rank-checked (see runtime/ordered_mutex.h).
  OrderedMutex<LockRank::kPoolState> mutex_;
  std::condition_variable_any cv_start_;
  std::condition_variable_any cv_done_;
  bool stop_ = false;
  int parked_ = 0;  // workers asleep on cv_start_
  // Both change only under mutex_; spinning threads read them without it
  // and take mutex_ before they act on what they saw.
  std::atomic<std::uint64_t> job_seq_{0};  // bumped per job and at stop
  std::atomic<int> active_{0};             // workers inside run_chunks

  ChunkFn fn_ = nullptr;
  void* ctx_ = nullptr;
  ChunkSplit chunks_;
  std::atomic<std::int64_t> next_chunk_{0};
  std::atomic<std::int64_t> done_chunks_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  OrderedMutex<LockRank::kPoolError> error_mutex_;
};

/// Effective thread count (override, else BDPROTO_THREADS, else hardware).
int thread_count();

/// Test/bench hook: forces the pool to `n` threads (rebuilt lazily);
/// n <= 0 restores the environment-resolved default.
void set_thread_count(int n);

/// True while the calling thread is executing inside a parallel_for chunk.
bool in_parallel_region();

/// Type-erased core used by the template below (global lazily-built pool).
void parallel_for_impl(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, ChunkFn fn, void* ctx);

/// Runs `fn(chunk_begin, chunk_end)` over the split_chunks of [begin, end) on
/// the global pool. Serial, as one call over [begin, end), when the range
/// fits one grain, the pool has a single thread, or the call is nested
/// inside another parallel_for.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  using F = std::remove_reference_t<Fn>;
  parallel_for_impl(
      begin, end, grain,
      [](void* ctx, std::int64_t lo, std::int64_t hi) {
        (*static_cast<F*>(ctx))(lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

/// Grain size targeting ~`target` units of per-chunk work when one index
/// costs `per_item_cost` units. Depends only on the workload shape, so chunk
/// boundaries stay thread-count-invariant.
inline std::int64_t grain_for_cost(std::int64_t per_item_cost,
                                   std::int64_t target = std::int64_t{1}
                                                         << 15) {
  const std::int64_t cost = per_item_cost > 0 ? per_item_cost : 1;
  const std::int64_t grain = target / cost;
  return grain > 0 ? grain : 1;
}

}  // namespace bd::runtime
