// Observability subsystem: metric semantics, span nesting across the
// parallel runtime, exporter validity, env-knob gating — and the harness
// that proves instrumentation costs (almost) nothing when off.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/layers.h"
#include "obs/obs.h"
#include "optim/optim.h"
#include "runtime/thread_pool.h"
#include "util/json.h"
#include "util/rng.h"

namespace bd::obs {
namespace {

/// Every test must leave the process-wide observability state exactly as it
/// found it (disabled, empty trace), because the instruments are global.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    clear_trace();
  }
  void TearDown() override {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    clear_trace();
    set_trace_capacity_for_test(0);
  }
};

TEST_F(ObsTest, CounterSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterConcurrentAdds) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST_F(ObsTest, GaugeSemantics) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1.0      -> bucket 0
  h.observe(1.0);    // == bound    -> bucket 0 (le semantics)
  h.observe(5.0);    //             -> bucket 1
  h.observe(100.0);  //             -> bucket 2
  h.observe(1e9);    // overflow    -> bucket 3
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e9);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST_F(ObsTest, HistogramRejectsBadLayouts) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({10.0, 1.0}), std::invalid_argument);
}

TEST_F(ObsTest, FixedBucketLayouts) {
  EXPECT_EQ(duration_ns_buckets().size(), 8u);
  EXPECT_EQ(duration_ns_buckets().front(), 1e3);
  EXPECT_EQ(duration_ns_buckets().back(), 1e10);
  EXPECT_EQ(seconds_buckets().size(), 7u);
  EXPECT_EQ(seconds_buckets().front(), 1e-3);
  EXPECT_EQ(seconds_buckets().back(), 1e3);
}

TEST_F(ObsTest, RegistryGetOrCreate) {
  Counter& a = registry().counter("obs_test.counter");
  Counter& b = registry().counter("obs_test.counter");
  EXPECT_EQ(&a, &b);
  Histogram& h = registry().histogram("obs_test.hist", {1.0, 2.0});
  // Bounds apply only on first registration; same instrument afterwards.
  Histogram& h2 = registry().histogram("obs_test.hist", {99.0});
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST_F(ObsTest, KnobParsing) {
  EXPECT_FALSE(knob_enables(""));
  EXPECT_FALSE(knob_enables("0"));
  EXPECT_FALSE(knob_enables("off"));
  EXPECT_FALSE(knob_enables("OFF"));
  EXPECT_FALSE(knob_enables("false"));
  EXPECT_TRUE(knob_enables("1"));
  EXPECT_TRUE(knob_enables("on"));
  EXPECT_TRUE(knob_enables("TRUE"));
  EXPECT_TRUE(knob_enables("/tmp/out.json"));

  EXPECT_EQ(knob_path("1", "default.json"), "default.json");
  EXPECT_EQ(knob_path("ON", "default.json"), "default.json");
  EXPECT_EQ(knob_path("true", "default.json"), "default.json");
  EXPECT_EQ(knob_path("/tmp/custom.json", "default.json"),
            "/tmp/custom.json");
}

TEST_F(ObsTest, EnvKnobGating) {
  // Default (knobs unset): everything off after a reinit.
  ::unsetenv("BDPROTO_METRICS");
  ::unsetenv("BDPROTO_TRACE");
  reinit_from_env_for_test();
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());
  EXPECT_FALSE(enabled());
  EXPECT_EQ(metrics_export_path(), "");
  EXPECT_EQ(trace_export_path(), "");

  ::setenv("BDPROTO_METRICS", "1", 1);
  ::setenv("BDPROTO_TRACE", "/tmp/obs_test_trace.json", 1);
  reinit_from_env_for_test();
  EXPECT_TRUE(metrics_enabled());
  EXPECT_TRUE(trace_enabled());
  EXPECT_EQ(metrics_export_path(), "bdproto_metrics.jsonl");
  EXPECT_EQ(trace_export_path(), "/tmp/obs_test_trace.json");

  ::setenv("BDPROTO_METRICS", "off", 1);
  ::setenv("BDPROTO_TRACE", "0", 1);
  reinit_from_env_for_test();
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());

  ::unsetenv("BDPROTO_METRICS");
  ::unsetenv("BDPROTO_TRACE");
  reinit_from_env_for_test();
  EXPECT_FALSE(enabled());
}

TEST_F(ObsTest, SetHooksToggleIndependently) {
  set_trace_enabled(true);
  EXPECT_TRUE(trace_enabled());
  EXPECT_FALSE(metrics_enabled());
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  set_trace_enabled(false);
  EXPECT_FALSE(trace_enabled());
  EXPECT_TRUE(metrics_enabled());
}

TEST_F(ObsTest, SpanRecordsNothingWhenOff) {
  clear_trace();
  const auto before = snapshot_trace().size();
  {
    Span s("obs_test.off");
    Span t("obs_test.off_nested", 7);
  }
  EXPECT_EQ(snapshot_trace().size(), before);
}

TEST_F(ObsTest, SpanNestingOnOneThread) {
  set_trace_enabled(true);
  clear_trace();
  {
    Span outer("obs_test.outer", 1);
    { Span inner("obs_test.inner", 2); }
    { Span inner("obs_test.inner", 3); }
  }
  const auto events = snapshot_trace();
  ASSERT_EQ(events.size(), 6u);
  // Record order on a single thread is B(outer) B/E(inner) B/E(inner)
  // E(outer); all on the same tid with monotone timestamps.
  EXPECT_STREQ(events[0].name, "obs_test.outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].arg, 1);
  EXPECT_STREQ(events[5].name, "obs_test.outer");
  EXPECT_EQ(events[5].phase, 'E');
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].tid, events[0].tid);
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST_F(ObsTest, SpanNestingAcrossParallelWorkers) {
  runtime::set_thread_count(4);
  set_trace_enabled(true);
  clear_trace();

  constexpr std::int64_t kChunks = 64;
  {
    Span outer("obs_test.parallel_outer");
    runtime::parallel_for(0, kChunks, 1, [](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        Span chunk("obs_test.chunk", i);
        // A nested span inside the worker, as kernels produce.
        Span inner("obs_test.chunk_inner");
      }
    });
  }
  runtime::set_thread_count(0);

  const auto events = snapshot_trace();
  // Per-tid streams must be balanced and properly nested.
  std::map<std::uint32_t, std::vector<const char*>> stacks;
  std::int64_t chunk_begins = 0;
  for (const auto& e : events) {
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
      if (std::string_view(e.name) == "obs_test.chunk") ++chunk_begins;
    } else {
      ASSERT_FALSE(stack.empty()) << "unbalanced E on tid " << e.tid;
      EXPECT_STREQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  // Chunk boundaries are deterministic: exactly one span per chunk executed,
  // spread over however many workers picked them up.
  EXPECT_EQ(chunk_begins, kChunks);
}

/// The whole Chrome trace export, parsed with the library codec.
Json parse_trace() {
  std::ostringstream os;
  write_chrome_trace(os);
  Json trace;
  std::string error;
  EXPECT_TRUE(Json::parse(os.str(), trace, error)) << error << "\n"
                                                   << os.str();
  return trace;
}

/// Every metrics JSONL line, each parsed with the library codec, by name.
std::map<std::string, Json> parse_metrics_jsonl() {
  std::ostringstream os;
  registry().write_jsonl(os);
  std::istringstream is(os.str());
  std::map<std::string, Json> by_name;
  std::string line;
  while (std::getline(is, line)) {
    Json value;
    std::string error;
    EXPECT_TRUE(Json::parse(line, value, error)) << error << "\n" << line;
    EXPECT_TRUE(value.is_object()) << line;
    by_name[value.get_string("name")] = value;
  }
  return by_name;
}

TEST_F(ObsTest, ChromeTraceExportParsesBack) {
  set_trace_enabled(true);
  clear_trace();
  {
    Span outer("obs_test.export", 5);
    Span inner("obs_test.export_inner");
  }
  const Json trace = parse_trace();
  EXPECT_EQ(trace.get_string("displayTimeUnit"), "ms");
  const Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items().size(), 4u);

  // Begin/end events pair up per thread, in nesting order.
  std::map<std::int64_t, std::vector<std::string>> open;
  std::size_t begins = 0;
  for (const Json& e : events->items()) {
    EXPECT_EQ(e.get_string("cat"), "bd");
    EXPECT_EQ(e.get_int("pid", 0), 1);
    EXPECT_GE(e.get_double("ts", -1.0), 0.0);
    auto& stack = open[e.get_int("tid", -1)];
    if (e.get_string("ph") == "B") {
      ++begins;
      stack.push_back(e.get_string("name"));
      if (e.get_string("name") == "obs_test.export") {
        ASSERT_NE(e.find("args"), nullptr);
        EXPECT_EQ(e.find("args")->get_int("v", 0), 5);
      } else {
        EXPECT_EQ(e.find("args"), nullptr);
      }
    } else {
      ASSERT_EQ(e.get_string("ph"), "E");
      ASSERT_FALSE(stack.empty());
      stack.pop_back();
    }
  }
  EXPECT_EQ(begins, 2u);
  for (const auto& [tid, stack] : open) EXPECT_TRUE(stack.empty()) << tid;
}

TEST_F(ObsTest, ChromeTraceEscapesHostileSpanNames) {
  set_trace_enabled(true);
  clear_trace();
  { Span hostile("q\"\x01"); }
  const Json trace = parse_trace();
  const Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  EXPECT_EQ(events->items()[0].get_string("name"), "q\"\x01");
}

TEST_F(ObsTest, JsonlExportIsValid) {
  registry().counter("obs_test.export_counter").add(3);
  registry().gauge("obs_test.export_gauge").set(1.5);
  registry()
      .histogram("obs_test.export_hist", {10.0, 20.0})
      .observe(15.0);
  registry().set_label("obs_test.export_label", "avx \"x\"");

  std::ostringstream os;
  registry().write_jsonl(os);
  const std::string jsonl = os.str();

  EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":"
                       "\"obs_test.export_counter\",\"value\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"obs_test.export_gauge\",\"value\":1.5}"),
            std::string::npos);

  const std::map<std::string, Json> metrics = parse_metrics_jsonl();
  EXPECT_GE(metrics.size(), 4u);
  const Json& counter = metrics.at("obs_test.export_counter");
  EXPECT_EQ(counter.get_string("type"), "counter");
  EXPECT_EQ(counter.get_int("value", -1), 3);
  const Json& gauge = metrics.at("obs_test.export_gauge");
  EXPECT_EQ(gauge.get_string("type"), "gauge");
  EXPECT_EQ(gauge.get_double("value", 0.0), 1.5);

  const Json& label = metrics.at("obs_test.export_label");
  EXPECT_EQ(label.get_string("type"), "label");
  EXPECT_EQ(label.get_string("value"), "avx \"x\"");
  // Labels come first, before any instrument.
  EXPECT_EQ(jsonl.rfind("{\"type\":\"label\"", 0), 0u);

  const Json& hist = metrics.at("obs_test.export_hist");
  EXPECT_EQ(hist.get_string("type"), "histogram");
  EXPECT_EQ(hist.get_int("count", -1), 1);
  EXPECT_EQ(hist.get_double("sum", 0.0), 15.0);
  const Json* buckets = hist.find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items().size(), 3u);
  EXPECT_EQ(buckets->items()[0].get_double("le", 0.0), 10.0);
  EXPECT_EQ(buckets->items()[0].get_int("count", -1), 0);
  EXPECT_EQ(buckets->items()[1].get_double("le", 0.0), 20.0);
  EXPECT_EQ(buckets->items()[1].get_int("count", -1), 1);
  EXPECT_EQ(buckets->items()[2].get_string("le"), "+Inf");
  EXPECT_EQ(buckets->items()[2].get_int("count", -1), 0);
}

TEST_F(ObsTest, NonFiniteGaugeExportsNull) {
  registry().gauge("obs_test.nan_gauge").set(std::nan(""));
  const std::map<std::string, Json> metrics = parse_metrics_jsonl();
  const Json* value = metrics.at("obs_test.nan_gauge").find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_TRUE(value->is_null());
  registry().gauge("obs_test.nan_gauge").set(0.0);
}

TEST_F(ObsTest, CapacityDropKeepsPairsBalanced) {
  set_trace_enabled(true);
  clear_trace();
  set_trace_capacity_for_test(4);

  for (int i = 0; i < 8; ++i) {
    Span outer("obs_test.cap_outer", i);
    Span inner("obs_test.cap_inner");
  }
  EXPECT_GT(trace_dropped_count(), 0u);

  const auto events = snapshot_trace();
  std::vector<const char*> stack;
  for (const auto& e : events) {
    if (e.phase == 'B') {
      stack.push_back(e.name);
    } else {
      ASSERT_FALSE(stack.empty());
      EXPECT_STREQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());
  // Dropping a 'B' suppresses its whole subtree, so the export is still a
  // valid forest even though events were discarded.
  EXPECT_LE(events.size(), 4u + 1u);  // one 'E' may land past the cap

  set_trace_capacity_for_test(0);
  clear_trace();
  {
    Span s("obs_test.cap_restored");
  }
  EXPECT_GE(snapshot_trace().size(), 2u);
}

TEST_F(ObsTest, RenderSpanTreeAggregates) {
  set_trace_enabled(true);
  clear_trace();
  {
    Span outer("obs_test.tree_outer");
    { Span inner("obs_test.tree_inner"); }
    { Span inner("obs_test.tree_inner"); }
  }
  const std::string tree = render_span_tree();
  EXPECT_NE(tree.find("obs_test.tree_outer"), std::string::npos);
  EXPECT_NE(tree.find("obs_test.tree_inner"), std::string::npos);
  EXPECT_NE(tree.find("2 x"), std::string::npos);

  clear_trace();
  EXPECT_EQ(render_span_tree(), "(no spans recorded)\n");
}

// Kernels are probed where the graph scheduler runs them: one matmul node
// costs one kernel.matmul_fwd and one kernel.matmul_bwd call, each counting
// the node's m x n output elements.
TEST_F(ObsTest, KernelProbeRecordsWhenMetricsOn) {
  set_metrics_enabled(true);
  const auto counter = [](const char* name) {
    return registry().counter(name).value();
  };
  const std::uint64_t fwd_calls = counter("kernel.matmul_fwd.calls");
  const std::uint64_t fwd_items = counter("kernel.matmul_fwd.items");
  const std::uint64_t bwd_calls = counter("kernel.matmul_bwd.calls");
  const std::uint64_t bwd_items = counter("kernel.matmul_bwd.items");

  ag::Var a(Tensor({4, 8}), /*requires_grad=*/true);
  ag::Var b(Tensor({8, 2}), /*requires_grad=*/true);
  for (std::int64_t i = 0; i < 32; ++i) a.mutable_value()[i] = 1.0f;
  for (std::int64_t i = 0; i < 16; ++i) b.mutable_value()[i] = 2.0f;
  const ag::Var c = ag::matmul(a, b);
  (void)c.value();
  ag::sum_all(c).backward();

  EXPECT_EQ(counter("kernel.matmul_fwd.calls"), fwd_calls + 1);
  EXPECT_EQ(counter("kernel.matmul_fwd.items"), fwd_items + 4u * 2u);
  EXPECT_EQ(counter("kernel.matmul_bwd.calls"), bwd_calls + 1);
  EXPECT_EQ(counter("kernel.matmul_bwd.items"), bwd_items + 4u * 2u);
}

// Kernel spans are leaves of the span tree: one traced training step of a
// conv + BatchNorm2d + Linear model opens no kernel.* span inside another on
// the same thread, and every materialized node gets exactly one forward
// probe — no op builder times graph construction or forced upstream work.
TEST_F(ObsTest, KernelSpansAttributeOneNodeEach) {
  Rng rng(7);
  nn::Conv2d conv(3, 4, 3, 1, 1, /*bias=*/false, rng);
  nn::BatchNorm2d bn(4);
  nn::Linear fc(4, 2, rng);
  std::vector<ag::Var*> params;
  for (nn::Module* m : std::initializer_list<nn::Module*>{&conv, &bn, &fc}) {
    for (ag::Var* v : m->parameters()) params.push_back(v);
  }
  optim::Sgd sgd(params, optim::SgdOptions{});
  Tensor images({2, 3, 6, 6});
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    images[i] = 0.01f * static_cast<float>(i % 17);
  }

  set_metrics_enabled(true);
  set_trace_enabled(true);
  clear_trace();
  const std::uint64_t nodes_before =
      registry().counter("autograd.nodes_materialized").value();
  sgd.zero_grad();
  const ag::Var features = ag::flatten2d(ag::global_avgpool(
      ag::relu(bn.forward(conv.forward(ag::Var(images))))));
  ag::cross_entropy(fc.forward(features), {0, 1}).backward();
  sgd.step();
  const std::uint64_t nodes =
      registry().counter("autograd.nodes_materialized").value() -
      nodes_before;

  std::map<std::uint32_t, int> open_kernels;  // per tid
  std::uint64_t nested = 0;
  std::uint64_t fwd_begins = 0;
  for (const TraceEvent& e : snapshot_trace()) {
    const std::string_view name(e.name);
    if (!name.starts_with("kernel.")) continue;
    if (e.phase == 'B') {
      if (open_kernels[e.tid] > 0) ++nested;
      ++open_kernels[e.tid];
      if (name.ends_with("_fwd")) ++fwd_begins;
    } else {
      --open_kernels[e.tid];
    }
  }
  EXPECT_EQ(nested, 0u);
  EXPECT_GT(nodes, 0u);
  EXPECT_EQ(fwd_begins, nodes);
}

// The graph-IR scheduler reports its backward footprint: after a pass with
// metrics on, the autograd.arena_peak_bytes gauge holds the bytes of the
// interior gradients held at once (the same number GradArena::stats()
// carries). Here mul's gradient is still held when relu's and sigmoid's
// arrive: three [4, 4] gradients, 192 bytes.
TEST_F(ObsTest, AutogradArenaGaugeRecordsBackwardFootprint) {
  set_metrics_enabled(true);
  const std::uint64_t passes_before =
      registry().counter("autograd.backward_passes").value();

  ag::Var a(Tensor({4, 4}), /*requires_grad=*/true);
  for (std::int64_t i = 0; i < 16; ++i) a.mutable_value()[i] = 0.1f * i;
  ag::Var loss = ag::sum_all(ag::mul(ag::relu(a), ag::sigmoid(a)));
  loss.backward();

  EXPECT_EQ(registry().counter("autograd.backward_passes").value(),
            passes_before + 1);
  EXPECT_GT(registry().counter("autograd.nodes_materialized").value(), 0u);
  EXPECT_EQ(registry().gauge("autograd.arena_peak_bytes").value(), 192.0);
  EXPECT_EQ(ag::GradArena::local().stats().last_peak_bytes, 192);
}

TEST_F(ObsTest, ResetValuesZeroesInPlace) {
  Counter& c = registry().counter("obs_test.reset_me");
  c.add(5);
  registry().reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // the reference stayed valid
  EXPECT_EQ(c.value(), 1u);
}

// The "costs nothing when off" guarantee, as a wall-clock bound: one
// million span enter/exit pairs, each wrapping the kernel probe the graph
// scheduler puts around every op, with both pillars disabled. Each disabled
// path is one relaxed atomic load, so even under ASan + Debug this runs in
// a few milliseconds; the bound is deliberately generous (2s) to stay
// robust on loaded CI machines while still catching a regression that
// takes a lock or allocates per span or probe (which would be >100x slower).
TEST_F(ObsTest, DisabledSpanOverheadGuard) {
  ASSERT_FALSE(enabled());
  static KernelStats& stats = kernel_stats("obs_test.overhead_probe");
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    Span span("obs_test.overhead");
    KernelScope probe(stats, 1);
    (void)span;
    (void)probe;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  EXPECT_LT(ms, 2000) << "disabled span + probe pairs cost " << ms
                      << "ms per 1e6";
  // And they really recorded nothing.
  EXPECT_EQ(snapshot_trace().size(), 0u);
  EXPECT_EQ(stats.calls.value(), 0u);
  EXPECT_EQ(stats.items.value(), 0u);
}

}  // namespace
}  // namespace bd::obs
