// Per-thread footprint statistics of the autograd backward pass.
//
// An interior gradient is the backward kernel's own output (schedule.h);
// nothing is pooled or reused. The scheduler records, per pass, the
// high-water mark of interior-gradient bytes held at once: the sum of
// numel * sizeof(float) over the interior nodes that hold a gradient.
// Leaf and root gradients are persistent and not counted.
//
// Concurrency: the stats are thread_local — each thread doing backward owns
// its own, so there is no shared state and no lock.
#pragma once

#include <cstdint>

namespace bd::ag {

/// Backward-pass footprint of the calling thread (reset_stats zeroes).
struct ArenaStats {
  std::int64_t last_peak_bytes = 0;  // peak of the most recent pass
  std::int64_t max_peak_bytes = 0;   // largest peak seen
};

/// Holder of the calling thread's ArenaStats.
class GradArena {
 public:
  /// The calling thread's stats holder.
  static GradArena& local() {
    thread_local GradArena arena;
    return arena;
  }

  const ArenaStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ArenaStats{}; }

  /// Records one backward pass's peak interior-gradient bytes.
  void record_pass(std::int64_t peak_bytes) {
    stats_.last_peak_bytes = peak_bytes;
    if (peak_bytes > stats_.max_peak_bytes) stats_.max_peak_bytes = peak_bytes;
  }

 private:
  ArenaStats stats_;
};

}  // namespace bd::ag
