#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "bench.h"

namespace perfbench {

void Outcome::add(const std::string& name, double value,
                  const std::string& unit, std::int64_t samples,
                  const std::string& note) {
  metrics.push_back(Metric{name, value, unit, samples, note});
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double process_cpu_seconds() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double host_steal_seconds() {
  // "cpu user nice system idle iowait irq softirq steal ..." in clock ticks,
  // summed over all CPUs.
  std::ifstream in("/proc/stat");
  std::string line, label;
  if (!std::getline(in, line)) return 0.0;
  std::istringstream fields(line);
  fields >> label;
  double ticks[8] = {};
  for (double& t : ticks) {
    if (!(fields >> t)) return 0.0;
  }
  return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

HostClock HostClock::now() {
  HostClock c;
  c.steal = host_steal_seconds();
  c.cpu = process_cpu_seconds();
  c.wall = now_seconds();
  return c;
}

double run_share(const HostClock& from, const HostClock& to) {
  const double cpu = std::max(0.0, to.cpu - from.cpu);
  const double steal = std::max(0.0, to.steal - from.steal);
  return cpu + steal > 0.0 ? cpu / (cpu + steal) : 1.0;
}

double steal_free_seconds(const HostClock& from, const HostClock& to) {
  return (to.wall - from.wall) * run_share(from, to);
}

void add_host_metrics(double wall_p50, double share, std::int64_t samples,
                      Outcome& outcome) {
  outcome.add("host.wall_p50_s", wall_p50, "s", samples,
              "latency_p50_s before steal is removed");
  outcome.add("host.run_share", share, "share", 1,
              "process CPU / (CPU + host steal) over the measured window");
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string percentile_label(double pct) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%.3g", pct);
  return buf;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0xFFFFFFFFULL;  // small enough for JSON ints
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local std::vector<int> open_spans;

}  // namespace

int Recorder::begin(const std::string& name, int unit) {
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mutex_);
  if (unit < 0 && parent >= 0) unit = spans_[parent].unit;
  spans_.push_back(Span{name, now_ns(), 0, parent, unit});
  const int id = static_cast<int>(spans_.size() - 1);
  open_spans.push_back(id);
  return id;
}

void Recorder::end(int id) {
  const std::int64_t t = now_ns();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t Recorder::child_ns(int id) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent == id) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::vector<double> Recorder::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(1e-9 * (s.end_ns - s.start_ns));
  }
  return out;
}

double Recorder::unattributed_share(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0, self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    total += s.end_ns - s.start_ns;
    self += s.end_ns - s.start_ns - child_ns(static_cast<int>(i));
  }
  return total > 0 ? static_cast<double>(self) / static_cast<double>(total) : 0.0;
}

bool Recorder::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit
        << ",\"self_ns\":"
        << (s.end_ns - s.start_ns - child_ns(static_cast<int>(i))) << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

Scope::Scope(Recorder& recorder, const std::string& name, int unit)
    : recorder_(recorder) {
  if (recorder_.enabled()) id_ = recorder_.begin(name, unit);
}

Scope::~Scope() {
  if (id_ >= 0) recorder_.end(id_);
}

RefStore::RefStore(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab != std::string::npos) refs_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

void RefStore::check(const std::string& key, const std::string& value,
                     Outcome& outcome) {
  const auto it = refs_.find(key);
  if (it == refs_.end()) {
    refs_[key] = value;
    dirty_ = true;
    return;
  }
  outcome.check(it->second == value, "result of " + key + " is " + value +
                                         ", an earlier run gave " + it->second);
}

void RefStore::save() const {
  if (!dirty_) return;
  std::ofstream out(path_, std::ios::trunc);
  for (const auto& [key, value] : refs_) out << key << '\t' << value << '\n';
}

}  // namespace perfbench
