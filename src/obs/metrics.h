// bd::obs metrics — process-wide registry of counters, gauges and
// histograms with fixed bucket layouts.
//
// All mutation paths are lock-free (relaxed atomics; the histogram sum uses
// a CAS loop), so instruments can be hammered from inside parallel_for
// workers without serializing them. Registration (name -> instrument) takes
// a mutex but happens once per name; hot call sites cache the returned
// reference, which stays valid for the life of the process — reset_values()
// zeroes instruments in place and never invalidates references.
//
// Instruments record plain observations (durations, counts, losses); they
// never read or advance any RNG and never feed back into computation, so
// enabling metrics cannot perturb training or pruning results.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/gate.h"
#include "runtime/ordered_mutex.h"

namespace bd::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over a fixed, ascending list of upper bounds plus an implicit
/// overflow bucket. Bucket counts are NON-cumulative: bucket i counts
/// observations v with bounds[i-1] < v <= bounds[i] (bucket 0: v <=
/// bounds[0]; the last bucket: v > bounds.back()).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]; the last index is the overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Fixed bucket layouts shared by all call sites, so every exported
/// histogram of the same kind is directly comparable across runs.
const std::vector<double>& duration_ns_buckets();  // 1us .. 10s, decades
const std::vector<double>& seconds_buckets();      // 1ms .. 1000s, decades

class Registry {
 public:
  static Registry& instance();

  /// Get-or-create; the returned reference is valid forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first registration of `name`.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds =
                           duration_ns_buckets());

  /// Sets the export label `name` to `value`: a fact about the run that no
  /// number carries, such as the GEMM kernel in use ("gemm.kernel").
  void set_label(const std::string& name, const std::string& value);

  /// One JSON object per line, labels first:
  ///   {"type":"label","name":...,"value":"..."}
  ///   {"type":"counter","name":...,"value":N}
  ///   {"type":"gauge","name":...,"value":X}
  ///   {"type":"histogram","name":...,"count":N,"sum":X,
  ///    "buckets":[{"le":B,"count":N},...,{"le":"+Inf","count":N}]}
  void write_jsonl(std::ostream& os) const;
  bool write_jsonl_file(const std::string& path) const;

  /// Human-readable top-k listing (counters by value, histograms by count,
  /// all gauges), for `bdctl profile`.
  std::string summary(std::size_t top_k = 10) const;

  /// Test hook: zeroes every instrument in place (references stay valid).
  void reset_values();

 private:
  Registry() = default;

  // Innermost rank: BD_OBS_* instruments fire from under every other
  // subsystem's lock, and registration never calls back out.
  mutable runtime::OrderedMutex<runtime::LockRank::kObsRegistry> mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> labels_;
};

inline Registry& registry() { return Registry::instance(); }

}  // namespace bd::obs
