// perfbench: runs one named workload for a fixed time and prints its
// metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload table_vgg|serve_tenants
//             --seed N --seconds S --trace 0|1 --state-dir DIR
//             [--source-digest HEX] [--git-sha SHA]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics from the benchmark's own spans and probes.
// The run pins its thread counts and clears every BDPROTO_* variable, so
// the environment cannot change what is measured.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/gate.h"
#include "util/logging.h"

extern char** environ;

namespace perfbench {
namespace {

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Drops every BDPROTO_* variable, then pins the scale knob: stray
/// settings for threads, mode, faults, tracing or metrics cannot leak in.
void neutralise_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("BDPROTO_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  ::setenv("BDPROTO_MODE", "quick", 1);
  bd::obs::set_metrics_enabled(false);
  bd::obs::set_trace_enabled(false);
  bd::set_log_level(bd::LogLevel::kWarn);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --state-dir DIR [--source-digest HEX] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  neutralise_environment();
  // One malloc arena for every thread. By default glibc gives threads that
  // meet contention arenas of their own, and the freed memory each arena
  // keeps depends on thread timing: the serve peak RSS then moved by a
  // quarter between runs. With one arena it measures the program's memory.
  ::mallopt(M_ARENA_MAX, 1);
  Options options;
  std::string source_digest = "unknown";
  std::string git_sha = "none";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--state-dir") options.state_dir = value;
    else if (flag == "--source-digest") source_digest = value;
    else if (flag == "--git-sha") git_sha = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  Outcome (*run)(const Options&) = nullptr;
  if (options.workload == "table_vgg") run = run_table;
  if (options.workload == "serve_tenants") run = run_serve;
  if (run == nullptr) return usage("unknown workload");
  if (options.state_dir.empty()) return usage("--state-dir is required");

  options.work_dir = options.state_dir + "/work-" + options.workload + "-" +
                     std::to_string(::getpid());
  // Results must repeat across runs of one source version; another version
  // may legitimately change arithmetic order, so it gets its own references.
  std::string version = source_digest;
  for (char& ch : version) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  options.refs_dir = options.state_dir + "/refs/" + version;
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.refs_dir);

  Outcome outcome;
  try {
    outcome = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir);

  if (!options.trace) {
    rusage resources{};
    ::getrusage(RUSAGE_SELF, &resources);
    outcome.add("peak_rss_mb", static_cast<double>(resources.ru_maxrss) / 1024.0,
                "MB", 1, "maximum resident set of the process");
  } else {
    outcome.add("bench.failed_share",
                outcome.attempted > 0
                    ? static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted)
                    : 0.0,
                "share", outcome.attempted);
  }

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int allowed =
      ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  std::ostringstream os;
  os << "{\"correct\":" << (outcome.errors.empty() ? "true" : "false")
     << ",\"attempted\":" << outcome.attempted
     << ",\"failed\":" << outcome.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    os << (i ? "," : "") << json_string(m.name) << ":{\"value\":" << exact(m.value)
       << ",\"unit\":" << json_string(m.unit) << ",\"samples\":" << m.samples
       << ",\"note\":" << json_string(m.note) << "}";
  }
  os << "},\"errors\":[";
  for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
    os << (i ? "," : "") << json_string(outcome.errors[i]);
  }
  os << "],\"meta\":{\"workload\":" << json_string(options.workload)
     << ",\"seed\":" << options.seed << ",\"seconds\":" << exact(options.seconds)
     << ",\"trace\":" << (options.trace ? 1 : 0)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpus_allowed\":" << allowed
     << ",\"engine_threads\":" << outcome.engine_threads
     << ",\"serve_workers\":" << outcome.serve_workers
     << ",\"serve_clients\":" << outcome.serve_clients
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_string(kCompiler)
     << ",\"git_sha\":" << json_string(git_sha)
     << ",\"source_digest\":" << json_string(source_digest) << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
