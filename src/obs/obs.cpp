#include "obs/obs.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <string>

#include "util/env.h"
#include "util/logging.h"

namespace bd::obs {

namespace detail {

std::atomic<std::uint32_t> g_flags{kUninitBit};

}  // namespace detail

namespace {

std::mutex g_init_mutex;
std::string g_metrics_path;  // resolved env export paths; guarded by
std::string g_trace_path;    // g_init_mutex
bool g_atexit_installed = false;

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

void atexit_flush() { flush_env_exports(); }

}  // namespace

bool knob_enables(const std::string& value) {
  const std::string v = lowercase(value);
  return !(v.empty() || v == "0" || v == "off" || v == "false");
}

std::string knob_path(const std::string& value, const std::string& fallback) {
  const std::string v = lowercase(value);
  if (v == "1" || v == "on" || v == "true") return fallback;
  return value;
}

namespace detail {

std::uint32_t init_flags() {
  std::lock_guard<std::mutex> lk(g_init_mutex);
  std::uint32_t f = g_flags.load(std::memory_order_relaxed);
  if ((f & kUninitBit) == 0) return f;  // raced with another initializer

  f = 0;
  g_metrics_path.clear();
  g_trace_path.clear();
  if (const auto v = env_string("BDPROTO_METRICS");
      v && knob_enables(*v)) {
    f |= kMetricsBit;
    g_metrics_path = knob_path(*v, "bdproto_metrics.jsonl");
  }
  if (const auto v = env_string("BDPROTO_TRACE"); v && knob_enables(*v)) {
    f |= kTraceBit;
    g_trace_path = knob_path(*v, "bdproto_trace.json");
  }
  if (f != 0 && !g_atexit_installed) {
    g_atexit_installed = true;
    std::atexit(atexit_flush);
  }
  g_flags.store(f, std::memory_order_relaxed);
  return f;
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  const std::uint32_t base = detail::flags();  // force env resolution first
  detail::g_flags.store(on ? (base | kMetricsBit) : (base & ~kMetricsBit),
                        std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  const std::uint32_t base = detail::flags();
  detail::g_flags.store(on ? (base | kTraceBit) : (base & ~kTraceBit),
                        std::memory_order_relaxed);
}

void reinit_from_env_for_test() {
  detail::g_flags.store(detail::kUninitBit, std::memory_order_relaxed);
}

std::string metrics_export_path() {
  detail::flags();
  std::lock_guard<std::mutex> lk(g_init_mutex);
  return g_metrics_path;
}

std::string trace_export_path() {
  detail::flags();
  std::lock_guard<std::mutex> lk(g_init_mutex);
  return g_trace_path;
}

void flush_env_exports() {
  const std::string metrics_path = metrics_export_path();
  const std::string trace_path = trace_export_path();
  if (!metrics_path.empty()) {
    if (registry().write_jsonl_file(metrics_path)) {
      BD_LOG(Info) << "obs: wrote metrics to " << metrics_path;
    } else {
      BD_LOG(Warn) << "obs: failed to write metrics to " << metrics_path;
    }
  }
  if (!trace_path.empty()) {
    if (write_chrome_trace_file(trace_path)) {
      BD_LOG(Info) << "obs: wrote trace to " << trace_path;
    } else {
      BD_LOG(Warn) << "obs: failed to write trace to " << trace_path;
    }
  }
}

KernelStats& kernel_stats(const std::string& name) {
  // Leaked on purpose: probes keep the reference, and trace events keep
  // name.c_str() until the atexit exporter has run.
  return *new KernelStats{
      name, registry().counter(name + ".calls"),
      registry().counter(name + ".items"),
      registry().histogram(name + ".ns", duration_ns_buckets())};
}

}  // namespace bd::obs
