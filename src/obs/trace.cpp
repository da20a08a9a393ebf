#include "obs/trace.h"

#include "util/atomic_file.h"
#include "util/json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace bd::obs {

namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

/// One buffer per recording thread. `mutex` is uncontended on the hot path
/// (only the owning thread pushes); snapshot/clear take it from outside so
/// exports taken at a quiescent point are race-free even if a pool worker
/// is mid-teardown.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
  // Depth of the currently-dropped subtree: a 'B' that does not fit (or
  // whose ancestor was dropped) increments it; the matching 'E' decrements
  // it. Keeps every exported per-thread stream balanced.
  std::uint64_t drop_depth = 0;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::atomic<std::size_t> capacity{kDefaultCapacity};
};

TraceState& state() {
  // Leaked: spans may still close during static destruction.
  static TraceState* g_state = new TraceState();
  return *g_state;
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

thread_local std::shared_ptr<ThreadBuffer> t_buffer;

ThreadBuffer& buffer_for_this_thread() {
  if (!t_buffer) {
    auto buf = std::make_shared<ThreadBuffer>();
    TraceState& st = state();
    std::lock_guard<std::mutex> lk(st.mutex);
    buf->tid = static_cast<std::uint32_t>(st.buffers.size());
    st.buffers.push_back(buf);
    t_buffer = std::move(buf);
  }
  return *t_buffer;
}

}  // namespace

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

void record_span_event(const char* name, char phase, std::int64_t arg) {
  ThreadBuffer& buf = buffer_for_this_thread();
  std::lock_guard<std::mutex> lk(buf.mutex);
  if (phase == 'B') {
    if (buf.drop_depth > 0 ||
        buf.events.size() >=
            state().capacity.load(std::memory_order_relaxed)) {
      ++buf.drop_depth;
      ++buf.dropped;
      return;
    }
  } else {
    if (buf.drop_depth > 0) {
      --buf.drop_depth;
      ++buf.dropped;
      return;
    }
  }
  buf.events.push_back(TraceEvent{name, arg, trace_now_ns(), buf.tid, phase});
}

std::vector<TraceEvent> snapshot_trace() {
  TraceState& st = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lk(st.mutex);
    buffers = st.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lk(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

void clear_trace() {
  TraceState& st = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lk(st.mutex);
    buffers = st.buffers;
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lk(buf->mutex);
    buf->events.clear();
    buf->dropped = 0;
    buf->drop_depth = 0;
  }
}

std::uint64_t trace_dropped_count() {
  TraceState& st = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lk(st.mutex);
    buffers = st.buffers;
  }
  std::uint64_t total = 0;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lk(buf->mutex);
    total += buf->dropped;
  }
  return total;
}

void set_trace_capacity_for_test(std::size_t per_thread) {
  state().capacity.store(per_thread > 0 ? per_thread : kDefaultCapacity,
                         std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& os) {
  const std::vector<TraceEvent> events = snapshot_trace();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    JsonObject event;
    event.set("name", e.name)
        .set("cat", "bd")
        .set("ph", std::string(1, e.phase))
        .set_double("ts", static_cast<double>(e.ts_ns) / 1e3)
        .set_int("pid", 1)
        .set_int("tid", e.tid);
    if (e.arg != kNoArg) {
      event.set_raw("args", JsonObject().set_int("v", e.arg).str());
    }
    os << (first ? "\n" : ",\n") << event.str();
    first = false;
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ostringstream os;
  write_chrome_trace(os);
  return write_file_atomic(path, os.str());
}

namespace {

struct SpanNode {
  const char* name = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::vector<std::unique_ptr<SpanNode>> children;

  SpanNode* child(const char* child_name) {
    for (auto& c : children) {
      if (c->name == child_name ||
          std::string_view(c->name) == child_name) {
        return c.get();
      }
    }
    children.push_back(std::make_unique<SpanNode>());
    children.back()->name = child_name;
    return children.back().get();
  }
};

void render_node(const SpanNode& node, std::size_t depth,
                 std::size_t max_depth, std::ostringstream& os) {
  if (max_depth != 0 && depth > max_depth) return;
  char line[200];
  std::snprintf(line, sizeof(line), "%*s%-*s %8llu x %12.3f ms\n",
                static_cast<int>(2 * depth), "",
                static_cast<int>(40 - std::min<std::size_t>(2 * depth, 38)),
                node.name,
                static_cast<unsigned long long>(node.count),
                static_cast<double>(node.total_ns) / 1e6);
  os << line;
  for (const auto& c : node.children) {
    render_node(*c, depth + 1, max_depth, os);
  }
}

}  // namespace

std::string render_span_tree(std::size_t max_depth) {
  const std::vector<TraceEvent> events = snapshot_trace();

  // Per-tid reconstruction: a begin/end stack rebuilt in record order.
  std::map<std::uint32_t, SpanNode> roots;
  std::map<std::uint32_t, std::vector<std::pair<SpanNode*, std::uint64_t>>>
      stacks;
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (const auto& e : events) {
    SpanNode& root = roots[e.tid];
    if (root.name == nullptr) root.name = "(root)";
    auto& stack = stacks[e.tid];
    last_ts[e.tid] = e.ts_ns;
    if (e.phase == 'B') {
      SpanNode* parent = stack.empty() ? &root : stack.back().first;
      SpanNode* node = parent->child(e.name);
      stack.emplace_back(node, e.ts_ns);
    } else if (!stack.empty()) {
      auto [node, start] = stack.back();
      stack.pop_back();
      ++node->count;
      node->total_ns += e.ts_ns - start;
    }
  }
  // Close any spans still open at snapshot time at the last seen timestamp.
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) {
      auto [node, start] = stack.back();
      stack.pop_back();
      ++node->count;
      const std::uint64_t end = std::max(last_ts[tid], start);
      node->total_ns += end - start;
    }
  }

  std::ostringstream os;
  for (auto& [tid, root] : roots) {
    if (root.children.empty()) continue;
    os << "tid " << tid << (tid == 0 ? " (main)" : "") << '\n';
    for (const auto& c : root.children) {
      render_node(*c, 1, max_depth, os);
    }
  }
  if (os.str().empty()) return "(no spans recorded)\n";
  return os.str();
}

}  // namespace bd::obs
