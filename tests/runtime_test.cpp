// bd::runtime thread-pool contract: pool lifecycle, exact index coverage,
// grain edge cases, balanced chunks that are the same at every thread count,
// exception propagation to the call site, serial nesting, parking and the
// spin hand-off, the set_thread_count() hook, and bitwise
// thread-count-invariance of the kernels built on parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace bd {
namespace {

// Restores the default pool size when a test returns (or fails).
class ThreadCountOverride {
 public:
  explicit ThreadCountOverride(int n) { runtime::set_thread_count(n); }
  ~ThreadCountOverride() { runtime::set_thread_count(0); }
};

TEST(Runtime, PoolConstructionAndTeardown) {
  // Pools of several sizes construct, run a job, and join cleanly.
  for (int threads : {1, 2, 4}) {
    std::vector<int> hits(128, 0);
    {
      runtime::ThreadPool pool(threads);
      EXPECT_EQ(pool.thread_count(), threads);
      auto body = [](void* ctx, std::int64_t lo, std::int64_t hi) {
        auto& v = *static_cast<std::vector<int>*>(ctx);
        for (std::int64_t i = lo; i < hi; ++i) {
          ++v[static_cast<std::size_t>(i)];
        }
      };
      pool.parallel_for(0, 128, 8, body, &hits);
    }  // destructor joins workers
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(Runtime, ThreadCountClampedToOne) {
  runtime::ThreadPool pool(-3);
  EXPECT_EQ(pool.thread_count(), 1);
}

TEST(Runtime, CoversEveryIndexExactlyOnce) {
  ThreadCountOverride threads(4);
  // Deliberately non-round range and grain.
  const std::int64_t n = 10007;
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  runtime::parallel_for(0, n, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      ++hits[static_cast<std::size_t>(i)];  // disjoint chunks: no race
    }
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1) << "index " << i;
  }
}

TEST(Runtime, NonZeroBeginCoversRange) {
  ThreadCountOverride threads(4);
  std::vector<int> hits(100, 0);
  runtime::parallel_for(37, 91, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)], (i >= 37 && i < 91) ? 1 : 0);
  }
}

TEST(Runtime, GrainEdgeCases) {
  ThreadCountOverride threads(4);
  // Empty and inverted ranges: the body must never run.
  std::atomic<int> calls{0};
  auto count = [&](std::int64_t, std::int64_t) { ++calls; };
  runtime::parallel_for(0, 0, 8, count);
  runtime::parallel_for(5, 5, 8, count);
  runtime::parallel_for(9, 3, 8, count);
  EXPECT_EQ(calls.load(), 0);

  // Range smaller than one grain: a single serial call with the full range.
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  runtime::parallel_for(0, 5, 100, [&](std::int64_t lo, std::int64_t hi) {
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::int64_t, std::int64_t>{0, 5}));

  // Grain <= 0 is clamped to 1 and still covers everything.
  std::vector<int> hits(16, 0);
  runtime::parallel_for(0, 16, 0, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

using Chunk = std::pair<std::int64_t, std::int64_t>;

// The chunks a pool of `threads` hands to the body, sorted.
std::vector<Chunk> chunks_at(int threads, std::int64_t begin,
                             std::int64_t end, std::int64_t grain) {
  struct Log {
    std::mutex mutex;
    std::vector<Chunk> chunks;
  } log;
  runtime::ThreadPool pool(threads);
  pool.parallel_for(
      begin, end, grain,
      [](void* ctx, std::int64_t lo, std::int64_t hi) {
        auto& l = *static_cast<Log*>(ctx);
        const std::lock_guard lk(l.mutex);
        l.chunks.emplace_back(lo, hi);
      },
      &log);
  std::sort(log.chunks.begin(), log.chunks.end());
  return log.chunks;
}

// Chunk boundaries are a function of (begin, end, grain) alone: the same
// balanced chunks at 2, 3 and 4 threads, and one call over their union,
// [begin, end), at 1 thread.
TEST(Runtime, BalancedChunksAreTheSameAtEveryThreadCount) {
  struct Case {
    std::int64_t begin, end, grain;
  };
  const std::vector<Case> cases = {
      {0, 5, 100},       {0, 100, 100},   {0, 101, 100},  {3, 4, 1},
      {0, 36864, 32768}, {0, 8, 7},       {0, 97, 13},    {11, 1009, 31},
      {-50, 50, 9},      {0, 7919, 1024}, {0, 64, 1},     {0, 1000, 999},
      {5, 6007, 2003},   {0, 17, 4},      {0, 12, 3},
  };
  for (const Case& c : cases) {
    const std::int64_t n = c.end - c.begin;
    const std::vector<Chunk> split = chunks_at(2, c.begin, c.end, c.grain);
    ASSERT_EQ(static_cast<std::int64_t>(split.size()),
              (n + c.grain - 1) / c.grain)
        << c.begin << ".." << c.end << " grain " << c.grain;
    std::int64_t next = c.begin, shortest = n, longest = 0;
    for (const auto& [lo, hi] : split) {
      EXPECT_EQ(lo, next) << "gap or overlap before " << lo;
      next = hi;
      shortest = std::min(shortest, hi - lo);
      longest = std::max(longest, hi - lo);
    }
    EXPECT_EQ(next, c.end);
    EXPECT_LE(longest - shortest, 1) << c.begin << ".." << c.end;
    EXPECT_LE(longest, c.grain);
    for (int threads : {3, 4}) {
      EXPECT_EQ(chunks_at(threads, c.begin, c.end, c.grain), split)
          << threads << " threads, " << c.begin << ".." << c.end
          << " grain " << c.grain;
    }
    EXPECT_EQ(chunks_at(1, c.begin, c.end, c.grain),
              std::vector<Chunk>{Chunk(c.begin, c.end)});
  }
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Idle workers spin for at most kSpinWindow and then park: over a 50 ms
// sleep after one job, a 4-thread pool burns a few windows of CPU, not the
// 150 ms three spinning workers would.
TEST(Runtime, IdlePoolParks) {
  runtime::ThreadPool pool(4);
  std::atomic<std::int64_t> visited{0};
  pool.parallel_for(
      0, 64, 1,
      [](void* ctx, std::int64_t lo, std::int64_t hi) {
        static_cast<std::atomic<std::int64_t>*>(ctx)->fetch_add(hi - lo);
      },
      &visited);
  EXPECT_EQ(visited.load(), 64);
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(process_cpu_seconds() - before, 0.025);
}

// Jobs posted just inside and just outside the spin window, to workers that
// are spinning, parking or waking, all complete with every index run once.
// (A sleep overshoots by tens of microseconds, which spreads the gaps
// across the window's end.)
TEST(Runtime, HandOffAcrossTheSpinWindowLosesNoJob) {
  const auto margin = std::chrono::microseconds(50);
  for (int threads : {2, 3, 4}) {
    runtime::ThreadPool pool(threads);
    std::vector<int> hits(16, 0);
    for (int job = 0; job < 2000; ++job) {
      if (job % 8 == 1) std::this_thread::sleep_for(runtime::kSpinWindow - margin);
      if (job % 8 == 5) std::this_thread::sleep_for(runtime::kSpinWindow + margin);
      pool.parallel_for(
          0, 16, 2,
          [](void* ctx, std::int64_t lo, std::int64_t hi) {
            auto& h = *static_cast<std::vector<int>*>(ctx);
            for (std::int64_t i = lo; i < hi; ++i) {
              ++h[static_cast<std::size_t>(i)];  // disjoint chunks
            }
          },
          &hits);
    }
    for (int h : hits) ASSERT_EQ(h, 2000) << threads << " threads";
  }
}

TEST(Runtime, WorkerExceptionRethrownAtCallSite) {
  ThreadCountOverride threads(4);
  EXPECT_THROW(
      runtime::parallel_for(0, 1000, 10,
                            [&](std::int64_t lo, std::int64_t) {
                              if (lo == 500) {
                                throw std::runtime_error("chunk failure");
                              }
                            }),
      std::runtime_error);

  // The pool stays usable after a failed job.
  std::atomic<std::int64_t> visited{0};
  runtime::parallel_for(0, 1000, 10, [&](std::int64_t lo, std::int64_t hi) {
    visited.fetch_add(hi - lo);
  });
  EXPECT_EQ(visited.load(), 1000);
}

TEST(Runtime, NestedParallelForRunsSerial) {
  ThreadCountOverride threads(4);
  EXPECT_FALSE(runtime::in_parallel_region());
  std::atomic<int> nested_violations{0};
  runtime::parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
    if (!runtime::in_parallel_region()) ++nested_violations;
    const auto outer_thread = std::this_thread::get_id();
    // The nested call must execute entirely on the calling thread.
    runtime::parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
      if (std::this_thread::get_id() != outer_thread) ++nested_violations;
      if (!runtime::in_parallel_region()) ++nested_violations;
    });
  });
  EXPECT_EQ(nested_violations.load(), 0);
  EXPECT_FALSE(runtime::in_parallel_region());
}

TEST(Runtime, SetThreadCountHook) {
  runtime::set_thread_count(3);
  EXPECT_EQ(runtime::thread_count(), 3);
  runtime::set_thread_count(0);  // reset to environment default
  EXPECT_GE(runtime::thread_count(), 1);
}

TEST(Runtime, KernelsBitwiseInvariantAcrossThreadCounts) {
  Rng rng(42);
  Tensor a({96, 64});
  Tensor b({64, 80});
  Tensor x({4, 6, 10, 10});
  Tensor w({5, 6, 3, 3});
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = rng.normal();
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = rng.normal();
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.normal();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();

  runtime::set_thread_count(1);
  const Tensor mm1 = matmul(a, b);
  const Tensor cv1 = conv2d_forward(x, w, Tensor(), {1, 1});
  runtime::set_thread_count(4);
  const Tensor mm4 = matmul(a, b);
  const Tensor cv4 = conv2d_forward(x, w, Tensor(), {1, 1});
  runtime::set_thread_count(0);

  ASSERT_EQ(mm1.shape(), mm4.shape());
  for (std::int64_t i = 0; i < mm1.numel(); ++i) {
    ASSERT_EQ(mm1[i], mm4[i]) << "matmul diverged at " << i;
  }
  ASSERT_EQ(cv1.shape(), cv4.shape());
  for (std::int64_t i = 0; i < cv1.numel(); ++i) {
    ASSERT_EQ(cv1[i], cv4[i]) << "conv diverged at " << i;
  }
}

}  // namespace
}  // namespace bd
