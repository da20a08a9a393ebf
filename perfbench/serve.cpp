// serve_tenants: an in-process SocketServer on TCP loopback (ephemeral
// port), journal on, two workers on one engine thread each, and a backbone
// cache that holds the whole catalog. Set-up warms the catalog of four
// small backbones; then three closed-loop tenant clients submit + wait
// jobs that cycle defense, SPC and checkpoint writes, while one open-loop
// poller sends status/jobs/stats on a fixed schedule, each request timed
// from the moment it was due.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "robust/supervisor.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

constexpr int kEngineThreads = 1;
constexpr int kWorkers = 2;
constexpr int kClients = 3;
constexpr int kSetups = 3;
constexpr double kPollPeriod = 0.05;  // poller: 20 requests per second
// A fixed percentile, so runs that complete different job counts report the
// same quantile; at least 15 of a run's 108 or more jobs lie beyond it.
constexpr double kTailPercentile = 86.0;

struct Backbone {
  const char* dataset;
  const char* arch;
  std::int64_t width;
  std::int64_t train_per_class;
  std::int64_t test_per_class;
};
// Widths and sizes balance job cost across architectures: at equal width a
// GTSRB MBConv job costs about ten times a CIFAR one.
constexpr Backbone kCatalog[] = {
    {"cifar", "preactresnet", 8, 12, 6},
    {"cifar", "vgg", 8, 12, 6},
    {"gtsrb", "mobilenet", 2, 4, 3},
    {"gtsrb", "efficientnet", 2, 4, 3},
};

struct Variant {
  const char* defense;
  std::int64_t spc;
  bool write_checkpoint;
};
// Variant 0 is the warm-up job of every backbone (the cache miss).
constexpr Variant kVariants[] = {
    {"gradprune", 2, false},
    {"ft", 3, true},
    {"clp", 2, false},
};
constexpr std::size_t kSpecs = std::size(kCatalog) * std::size(kVariants);
constexpr std::size_t kMinCycles = 3;

std::string job_json(std::size_t spec, std::uint64_t seed,
                     const std::string& client_id,
                     const std::string& out_path) {
  const Backbone& b = kCatalog[spec % std::size(kCatalog)];
  const Variant& v = kVariants[spec / std::size(kCatalog)];
  bd::serve::JsonObject job;
  job.set("dataset", b.dataset)
      .set("arch", b.arch)
      .set("defense", v.defense)
      .set_int("spc", v.spc)
      .set_int("seed", static_cast<std::int64_t>(
                           derive_seed(seed, spec % std::size(kCatalog))))
      .set_int("width", b.width)
      .set_int("attack_epochs", 2)
      .set_int("prune_rounds", 3)
      .set_int("finetune_epochs", 3)
      .set_int("train_per_class", b.train_per_class)
      .set_int("test_per_class", b.test_per_class)
      .set("client_id", client_id);
  if (v.write_checkpoint) job.set("out_path", out_path);
  return job.str();
}

// Times are steal-free (see HostClock); `wall` keeps the raw latency.
struct JobSample {
  std::size_t spec = 0;
  bool traced = false;
  double latency = 0.0;
  double defense_seconds = 0.0;
  double wall = 0.0;
  bool cache_hit = false;
  std::string result;  // exact ACC/ASR/RA/pruned
};

struct Shared {
  std::mutex mutex;
  std::vector<JobSample> jobs;
  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t shed = 0;
};

/// Submits one job and waits for its terminal state; false on any failure
/// (recorded in `shared`).
bool run_job(const bd::serve::Client& client, const std::string& tenant,
             const std::string& job, std::size_t spec, int unit, Recorder& rec,
             Shared& shared, JobSample& sample) {
  using bd::serve::Json;
  const HostClock t0 = HostClock::now();
  Scope span(rec, "unit", unit);
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(shared.mutex);
    ++shared.failed;
    shared.errors.push_back(tenant + ": " + why);
    return false;
  };
  int retries = 0;
  Json reply;
  try {
    Scope s(rec, "serve.submit");
    reply = client.request_json_retry(bd::serve::JsonObject()
                                          .set("op", "submit")
                                          .set("tenant", tenant)
                                          .set_raw("job", job)
                                          .str(),
                                      &retries);
  } catch (const std::exception& e) {
    return fail(std::string("submit: ") + e.what());
  }
  {
    std::lock_guard<std::mutex> lock(shared.mutex);
    shared.retries += retries;
  }
  if (!reply.get_bool("ok", false)) {
    if (reply.get_string("error") == "overloaded") {
      std::lock_guard<std::mutex> lock(shared.mutex);
      ++shared.shed;
    }
    return fail("submit refused: " + reply.get_string("error"));
  }
  const std::string id = reply.get_string("id");
  try {
    Scope s(rec, "serve.wait");
    do {
      reply = client.request_json_retry(bd::serve::JsonObject()
                                            .set("op", "wait")
                                            .set("id", id)
                                            .set_int("timeout", 30)
                                            .str());
    } while (!reply.get_bool("ok", false) &&
             reply.get_string("error") == "wait_timeout");
  } catch (const std::exception& e) {
    return fail("wait " + id + ": " + e.what());
  }
  const Json* state = reply.find("job");
  if (state == nullptr || state->get_string("state") != "done") {
    return fail("job " + id + " ended " +
                (state ? state->get_string("state") + " " + state->get_string("error")
                       : reply.get_string("error")));
  }
  const HostClock t1 = HostClock::now();
  sample.spec = spec;
  sample.wall = t1.wall - t0.wall;
  sample.latency = steal_free_seconds(t0, t1);
  sample.defense_seconds = state->get_double("seconds", 0.0) * run_share(t0, t1);
  sample.cache_hit = state->get_bool("cache_hit", false);
  sample.result = exact(state->get_double("acc", -1)) + " " +
                  exact(state->get_double("asr", -1)) + " " +
                  exact(state->get_double("ra", -1)) + " pruned=" +
                  std::to_string(state->get_int("pruned", -1));
  return true;
}

/// The daemon on its own thread; stopping and joining it is tied to this
/// object's lifetime, so no exit path leaves the thread running.
class Daemon {
 public:
  explicit Daemon(const bd::serve::ServerConfig& config)
      : server_(config), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {
    for (int i = 0; i < 1000 && server_.tcp_port() == 0 && error_.empty(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bd::serve::Client client() const {
    return bd::serve::Client(bd::serve::tcp_endpoint(
        "127.0.0.1:" + std::to_string(server_.tcp_port())));
  }
  /// Drains, joins and returns the server's failure ("" when it ran clean).
  std::string stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
    return error_;
  }

 private:
  bd::serve::SocketServer server_;
  std::string error_;
  std::thread thread_;
};

/// Set-up: one job per backbone, all submitted at once, trains the catalog
/// into the cache. Returns the results of those jobs by spec.
std::map<std::size_t, std::string> warm_catalog(const bd::serve::Client& client,
                                                std::uint64_t seed,
                                                Shared& shared) {
  Recorder off(false);
  std::vector<JobSample> warm(std::size(kCatalog));
  std::vector<std::thread> warmers;
  for (std::size_t b = 0; b < std::size(kCatalog); ++b) {
    warmers.emplace_back([&, b] {
      run_job(client, "setup", job_json(b, seed, "warm-" + std::to_string(b), ""),
              b, -1, off, shared, warm[b]);
    });
  }
  for (std::thread& t : warmers) t.join();
  std::map<std::size_t, std::string> results;
  for (std::size_t b = 0; b < warm.size(); ++b) results[b] = warm[b].result;
  return results;
}

}  // namespace

Outcome run_serve(const Options& options) {
  using bd::serve::Json;
  Outcome out;
  out.engine_threads = kEngineThreads;
  out.serve_workers = kWorkers;
  out.serve_clients = kClients;
  bd::runtime::set_thread_count(kEngineThreads);
  Recorder rec(options.trace);
  Recorder off(false);
  RefStore refs(options.refs_dir + "/serve_tenants.tsv");

  bd::robust::Supervisor supervisor;
  bd::serve::ServerConfig config;
  config.socket_path.clear();
  config.listen_address = "127.0.0.1:0";
  config.service.workers = kWorkers;
  config.service.queue_capacity = 16;
  config.service.tenant_quota = 4;
  config.service.cache_capacity = std::size(kCatalog);
  config.service.supervisor = &supervisor;
  const std::string ckpt_dir = options.work_dir + "/sanitized";
  std::filesystem::create_directories(ckpt_dir);

  // Set-up runs kSetups times, each on a fresh daemon with an empty cache
  // and journal; the last daemon carries the load. Every set-up must give
  // the same warm-up results.
  Shared shared;
  std::vector<double> setups;
  std::map<std::size_t, std::string> first_result;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) out.check(daemon->stop().empty(), "server failed during set-up");
    daemon.reset();
    config.service.journal_path =
        options.work_dir + "/serve_journal_" + std::to_string(i) + ".jsonl";
    const HostClock s0 = HostClock::now();
    daemon = std::make_unique<Daemon>(config);
    const auto results = warm_catalog(daemon->client(), options.seed, shared);
    setups.push_back(steal_free_seconds(s0, HostClock::now()));
    if (first_result.empty()) first_result = results;
    out.check(results == first_result, "catalog warm-up results differ between set-ups");
  }
  out.check(shared.failed == 0, "catalog warm-up failed");
  const bd::serve::Client client = daemon->client();

  // Load: closed-loop tenants plus one open-loop poller.
  std::atomic<bool> stop{false};
  std::atomic<int> next_unit{0};
  const HostClock start = HostClock::now();
  std::vector<std::thread> tenants;
  for (int c = 0; c < kClients; ++c) {
    tenants.emplace_back([&, c] {
      const std::string tenant = "tenant" + std::to_string(c);
      // Each client cycles through all specs, starting at its own offset,
      // and stops only at a cycle boundary: every spec then runs equally
      // often, so the latency mix is the same in every run. Three cycles
      // at least, so a run always completes 108 jobs.
      for (std::size_t k = 0; k < kMinCycles * kSpecs || k % kSpecs != 0 ||
                              now_seconds() - start.wall < options.seconds;
           ++k) {
        const std::size_t spec =
            (static_cast<std::size_t>(c) * std::size(kCatalog) + k) % kSpecs;
        std::string client_id = "c";
        client_id += std::to_string(c) + "-" + std::to_string(k);
        // Traced runs alternate untraced and traced cycles, so the tracing
        // overhead compares like jobs.
        JobSample sample;
        sample.traced = options.trace && (k / kSpecs) % 2 == 1;
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          ++shared.attempted;
        }
        if (run_job(client, tenant,
                    job_json(spec, options.seed, client_id,
                             ckpt_dir + "/" + client_id + ".ckpt"),
                    spec, next_unit++, sample.traced ? rec : off, shared,
                    sample)) {
          std::lock_guard<std::mutex> lock(shared.mutex);
          shared.jobs.push_back(sample);
        }
      }
    });
  }

  std::vector<double> control, lag;
  std::int64_t queue_depth_max = 0;
  std::int64_t poll_attempted = 0, poll_failed = 0;
  std::thread poller([&] {
    const char* const ops[] = {"status", "jobs", "stats"};
    const char* const spans[] = {"serve.status", "serve.jobs", "serve.stats"};
    for (int i = 0; !stop.load(); ++i) {
      const double due = start.wall + kPollPeriod * i;
      const double wait = due - now_seconds();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      lag.push_back(std::max(0.0, now_seconds() - due));
      bd::serve::JsonObject request;
      request.set("op", ops[i % 3]);
      if (i % 3 == 0) request.set("id", "j000001");
      ++poll_attempted;
      try {
        Scope s(rec, spans[i % 3]);
        const Json reply = client.request_json(request.str());
        if (!reply.get_bool("ok", false)) ++poll_failed;
        if (i % 3 == 2) {
          queue_depth_max =
              std::max(queue_depth_max, reply.get_int("queue_depth", 0));
        }
      } catch (const std::exception&) {
        ++poll_failed;
      }
      control.push_back(now_seconds() - due);
    }
  });
  for (std::thread& t : tenants) t.join();
  const HostClock end = HostClock::now();
  stop = true;
  poller.join();

  // RTT of a bare ping, for the control-path breakdown.
  std::vector<double> ping;
  for (int i = 0; i < 20; ++i) {
    const double t0 = now_seconds();
    client.alive();
    ping.push_back(now_seconds() - t0);
  }
  const Json stats = client.request_json("{\"op\":\"stats\"}");
  const std::string server_error = daemon->stop();
  out.check(server_error.empty(), "server: " + server_error);
  const auto journal_bytes =
      std::filesystem::file_size(config.service.journal_path);

  // Output checks: every job done, equal specs give equal metrics, and
  // cache hits reproduce the job that built their backbone.
  std::vector<double> latency, defend, outside, traced_latency, wall;
  for (const JobSample& j : shared.jobs) {
    (j.traced ? traced_latency : latency).push_back(j.latency);
    if (!j.traced) wall.push_back(j.wall);

    defend.push_back(j.defense_seconds);
    outside.push_back(j.latency - j.defense_seconds);
    auto [it, inserted] = first_result.emplace(j.spec, j.result);
    out.check(inserted || it->second == j.result,
              "spec " + std::to_string(j.spec) + " gave " + j.result +
                  ", an equal spec gave " + it->second);
    out.check(j.cache_hit, "job of spec " + std::to_string(j.spec) +
                               " missed the warmed backbone cache");
  }
  std::map<std::size_t, std::vector<double>> by_spec;
  for (const JobSample& j : shared.jobs) by_spec[j.spec].push_back(j.latency);
  for (const auto& [spec, times] : by_spec) {
    const Backbone& b = kCatalog[spec % std::size(kCatalog)];
    const Variant& v = kVariants[spec / std::size(kCatalog)];
    std::fprintf(stderr, "serve_tenants: %s/%s %s spc=%lld: %zu jobs, p50 %.3f s\n",
                 b.dataset, b.arch, v.defense, static_cast<long long>(v.spc),
                 times.size(), median(times));
  }
  for (const auto& [spec, result] : first_result) {
    refs.check("seed=" + std::to_string(options.seed) + " spec=" +
                   std::to_string(spec), result, out);
  }
  refs.save();
  for (const std::string& e : shared.errors) out.errors.push_back(e);
  out.attempted = shared.attempted + poll_attempted;
  out.failed = shared.failed + poll_failed;

  const auto n = static_cast<std::int64_t>(latency.size());
  if (!options.trace) {
    add_host_metrics(median(wall), run_share(start, end), n, out);

    out.add("setup_s", median(setups), "s", kSetups,
            "start a daemon, train and cache the 4 backbones");
    out.add("latency_p50_s", median(latency), "s", n, "submit to done");
    out.add("latency_tail_s", percentile(latency, kTailPercentile), "s", n,
            percentile_label(kTailPercentile) + " of job latency");
    out.add("defend_p50_s", median(defend), "s", n, "job defense seconds");
    out.add("throughput_per_min",
            60.0 * static_cast<double>(n) / steal_free_seconds(start, end),
            "1/min", n, "jobs per minute");
    return out;
  }

  auto med_ms = [&](const char* name) { return 1e3 * median(rec.durations(name)); };
  const auto np = static_cast<std::int64_t>(control.size());
  out.add("serve.ping_rtt_ms", 1e3 * median(ping), "ms", 20);
  out.add("serve.submit_rtt_ms", med_ms("serve.submit"), "ms",
          static_cast<std::int64_t>(rec.durations("serve.submit").size()));
  out.add("serve.jobs_rtt_ms", med_ms("serve.jobs"), "ms", np / 3);
  out.add("serve.control_p50_ms", 1e3 * median(control), "ms", np,
          "poller round trip from its due time");
  out.add("serve.poller_lag_ms", 1e3 * percentile(lag, 99), "ms", np,
          "p99 of how late the generator sent");
  const auto all_jobs = static_cast<std::int64_t>(shared.jobs.size());
  const auto journaled = all_jobs + static_cast<std::int64_t>(std::size(kCatalog));
  out.add("robust.journal_bytes_per_job",
          static_cast<double>(journal_bytes) / static_cast<double>(journaled),
          "bytes", journaled);
  out.add("serve.outside_defense_s", median(outside), "s", all_jobs,
          "job latency minus its defense seconds");
  const Json* cache = stats.find("cache");
  const double lookups = cache ? static_cast<double>(cache->get_int("hits", 0) +
                                                     cache->get_int("misses", 0))
                               : 0.0;
  out.add("serve.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(cache->get_int("hits", 0)) / lookups : 0.0,
          "ratio", static_cast<std::int64_t>(lookups));
  out.add("serve.queue_depth_max", static_cast<double>(queue_depth_max), "count", np / 3);
  out.add("serve.client_retries", static_cast<double>(shared.retries), "count", all_jobs);
  out.add("serve.shed", static_cast<double>(shared.shed), "count", all_jobs);
  out.add("trace.overhead_s", median(traced_latency) - median(latency), "s",
          static_cast<std::int64_t>(traced_latency.size()),
          "traced jobs minus untraced jobs of the same specs");

  ProbeConfig probe;
  probe.spec = {"mobilenet", 43, 3, kCatalog[2].width};
  probe.image_size = 12;
  probe.batch = 32;
  probe.engine_threads = kEngineThreads;
  probe.work_dir = options.work_dir;
  run_layer_probes(probe, out);
  rec.write(options.state_dir + "/trace_serve_tenants_" +
            std::to_string(options.seed) + ".json");
  return out;
}

}  // namespace perfbench
