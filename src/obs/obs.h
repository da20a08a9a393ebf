// bd::obs — umbrella header + instrumentation macros.
//
// All macros are no-ops-after-one-atomic-load when the matching pillar is
// disabled (the default). See gate.h for the knobs, metrics.h / trace.h for
// the primitives, and DESIGN.md "Observability" for the naming convention.
#pragma once

#include <cstdint>
#include <string>

#include "obs/gate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bd::obs {

/// Pre-registered instruments for one kernel call site: `<name>.calls`,
/// `<name>.items` (work units) and `<name>.ns` (duration histogram on the
/// fixed duration layout). Also owns the span name.
struct KernelStats {
  std::string name;
  Counter& calls;
  Counter& items;
  Histogram& duration_ns;
};

/// Registers and returns the instruments for `name`. Call once per name
/// and keep the reference; it is leaked, so the name outlives every span.
KernelStats& kernel_stats(const std::string& name);

/// RAII kernel probe: trace span (when tracing) plus calls/items counters
/// and a duration-histogram sample (when metrics are on). Off cost: one
/// relaxed atomic load.
class KernelScope {
 public:
  KernelScope(KernelStats& stats, std::int64_t items) : stats_(stats) {
    const std::uint32_t f = detail::flags();
    if (f == 0) return;
    if ((f & kTraceBit) != 0) {
      tracing_ = true;
      record_span_event(stats.name.c_str(), 'B', items);
    }
    if ((f & kMetricsBit) != 0) {
      items_ = items;
      start_ns_ = trace_now_ns();
      timing_ = true;
    }
  }
  ~KernelScope() {
    if (tracing_) record_span_event(stats_.name.c_str(), 'E', kNoArg);
    if (timing_) {
      stats_.calls.add(1);
      if (items_ > 0) stats_.items.add(static_cast<std::uint64_t>(items_));
      stats_.duration_ns.observe(
          static_cast<double>(trace_now_ns() - start_ns_));
    }
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  KernelStats& stats_;
  std::int64_t items_ = 0;
  std::uint64_t start_ns_ = 0;
  bool tracing_ = false;
  bool timing_ = false;
};

}  // namespace bd::obs

#define BD_OBS_CONCAT_INNER(a, b) a##b
#define BD_OBS_CONCAT(a, b) BD_OBS_CONCAT_INNER(a, b)

/// Scoped trace span; `name` must be a string literal.
#define BD_OBS_SPAN(name) \
  ::bd::obs::Span BD_OBS_CONCAT(bd_obs_span_, __LINE__)(name)
#define BD_OBS_SPAN_ARG(name, arg) \
  ::bd::obs::Span BD_OBS_CONCAT(bd_obs_span_, __LINE__)(name, (arg))

/// Counter increment / gauge sample, active only when metrics are on.
#define BD_OBS_COUNT(name, n)                                        \
  do {                                                               \
    if (::bd::obs::metrics_enabled()) {                              \
      ::bd::obs::registry().counter(name).add(                       \
          static_cast<std::uint64_t>(n));                            \
    }                                                                \
  } while (0)
#define BD_OBS_GAUGE(name, v)                                        \
  do {                                                               \
    if (::bd::obs::metrics_enabled()) {                              \
      ::bd::obs::registry().gauge(name).set(static_cast<double>(v)); \
    }                                                                \
  } while (0)
#define BD_OBS_OBSERVE(name, v, bounds)                              \
  do {                                                               \
    if (::bd::obs::metrics_enabled()) {                              \
      ::bd::obs::registry()                                          \
          .histogram(name, bounds)                                   \
          .observe(static_cast<double>(v));                          \
    }                                                                \
  } while (0)
