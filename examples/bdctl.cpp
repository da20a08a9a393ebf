// bdctl - command-line front end for the library, built on checkpoints so
// each stage can run in a separate process (the way a downstream user
// would actually operate: train once, audit and repair later).
//
//   bdctl train-backdoor --attack badnet --arch preactresnet
//          --dataset cifar --out model.ckpt
//   bdctl evaluate       --attack badnet --arch preactresnet
//          --dataset cifar --model model.ckpt
//   bdctl defend         --attack badnet --arch preactresnet
//          --dataset cifar --model model.ckpt --defense gradprune
//          --spc 10 --out repaired.ckpt
//
// Common flags: --seed N, --width N. The synthetic dataset is regenerated
// deterministically from the seed, so triggered test sets are identical
// across invocations. `defend` runs exactly the trial a served job with
// the same flags runs, so both write the same repaired checkpoint.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <chrono>
#include <thread>
#include <type_traits>

#include "attack/trigger.h"
#include "eval/runner.h"
#include "eval/table_bench.h"
#include "models/factory.h"
#include "nn/checkpoint.h"
#include "obs/obs.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/server.h"
#include "shard/coordinator.h"
#include "shard/ledger.h"
#include "tensor/ops.h"
#include "util/env.h"
#include "util/logging.h"

namespace {

using namespace bd;

/// A malformed command line: main prints it with the usage and exits 2.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// `text` as a whole T (util/env.h's parse_whole), or a UsageError naming
/// `flag`.
template <typename T>
T parse_flag(const std::string& flag, const std::string& text) {
  if (const auto v = parse_whole<T>(text)) return *v;
  throw UsageError(flag +
                   (std::is_integral_v<T> ? " wants an integer, got '"
                                          : " wants a number, got '") +
                   text + "'");
}

struct Args {
  std::string command;
  /// Each flag's values in command-line order; the getters read the last.
  std::map<std::string, std::vector<std::string>> flags;
  /// The free-form argv after a `--`, verbatim.
  std::vector<std::string> rest;

  const std::string* last(const std::string& key) const {
    const auto it = flags.find(key);
    return it == flags.end() ? nullptr : &it->second.back();
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const std::string* v = last(key);
    return v == nullptr ? fallback : *v;
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const std::string* v = last(key);
    return v == nullptr ? fallback
                        : parse_flag<std::int64_t>("--" + key, *v);
  }
  double get_double(const std::string& key, double fallback) const {
    const std::string* v = last(key);
    return v == nullptr ? fallback : parse_flag<double>("--" + key, *v);
  }
};

/// `<command> [--flag value]... [-- <argv...>]`: every flag takes a value,
/// and a `--` ends the flags, keeping what follows as `rest`.
Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  int i = 2;
  for (; i < argc && std::strcmp(argv[i], "--") != 0; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw UsageError(std::string("expected flag, got ") + argv[i]);
    }
    if (i + 1 == argc) {
      throw UsageError(std::string("flag ") + argv[i] + " needs a value");
    }
    args.flags[argv[i] + 2].push_back(argv[i + 1]);
  }
  if (i < argc) args.rest.assign(argv + i + 1, argv + argc);
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: bdctl <train-backdoor|evaluate|defend|verify|profile|"
               "serve|submit|jobs|cancel|shutdown|loadgen|shard> [flags]\n"
               "  common   : --attack badnet|blended|lf|bpp|dynamic\n"
               "             --arch preactresnet|vgg|efficientnet|mobilenet\n"
               "             --dataset cifar|gtsrb  --seed N  --width N\n"
               "  train    : --out model.ckpt\n"
               "  evaluate : --model model.ckpt\n"
               "  defend   : --model model.ckpt --defense ft|fp|nad|clp|"
               "ftsam|anp|gradprune --spc N --out repaired.ckpt\n"
               "             (runs the served job's trial: the scale's "
               "defense budgets and\n"
               "             trial seed, so the output equals `submit "
               "--model --out`)\n"
               "  verify   : bdctl verify <checkpoint>  (checks magic/"
               "version/CRC, prints the state dict,\n"
               "             exits non-zero on corruption)\n"
               "             bdctl verify <journal>  (run-journal summary: "
               "entries, retries,\n"
               "             degraded cells with failure reasons)\n"
               "             bdctl verify <ledger>  (lease-ledger summary: "
               "per-worker cell\n"
               "             counts, steals, expired leases, orphaned "
               "cells)\n"
               "  profile  : --defense NAME --spc N --epochs N --rounds N "
               "--topk N\n"
               "             runs an instrumented attack+defense workload and "
               "prints the span\n"
               "             tree plus top metrics; honors BDPROTO_TRACE/"
               "BDPROTO_METRICS export\n"
               "             paths\n"
               "  serve    : --socket PATH --workers N --queue N --quota N "
               "--cache N\n"
               "             --journal PATH --resume 0|1 [--listen HOST:PORT]"
               "\n"
               "             [--conn-cap N --read-deadline SECS "
               "--write-deadline SECS]\n"
               "             (daemon; blocks until shutdown or SIGTERM/"
               "SIGINT, which drain)\n"
               "  submit   : --socket PATH|--connect HOST:PORT --tenant T "
               "[job flags:\n"
               "             --dataset --arch --attack --defense --spc "
               "--seed --width\n"
               "             --attack-epochs --prune-rounds --ft-epochs "
               "--train-per-class\n"
               "             --test-per-class --model --out] [--client-id "
               "KEY]\n"
               "             [--wait 1 --timeout SECS]  (--client-id makes "
               "retries\n"
               "             idempotent; --wait reports timeout vs unknown "
               "job distinctly)\n"
               "  jobs     : --socket PATH|--connect HOST:PORT [--tenant T]\n"
               "  cancel   : --socket PATH|--connect HOST:PORT --id jNNNNNN\n"
               "  shutdown : --socket PATH|--connect HOST:PORT [--drain 0|1] "
               "(0 abandons the\n"
               "             queue; a restart reports those jobs "
               "interrupted)\n"
               "  loadgen  : --socket PATH|--connect HOST:PORT --jobs N "
               "--tenants K\n"
               "             [--distinct D] [--concurrency C] [--idempotent "
               "0|1] [job flags]\n"
               "  shard    : bdctl shard run --workers N [--journal J] "
               "[--ledger L]\n"
               "             [--ttl SECS] [--out MERGED] [--resume 0|1]\n"
               "             [--worker-faults IDX:SPEC]... -- <bench "
               "command...>\n"
               "             runs the bench command as N shard workers over "
               "a crash-\n"
               "             resilient lease ledger, then merges the journal "
               "into one table\n");
  return 2;
}

/// `bdctl verify <journal>`: loads a JSONL run journal and summarizes its
/// supervisor history — entries, total retries, degraded cells and their
/// failure reasons. Exits non-zero on a corrupt journal.
int cmd_verify_journal(const std::string& path) {
  try {
    const robust::RunJournal journal(path);
    std::int64_t retries = 0;
    std::vector<std::string> degraded_lines;
    for (const auto& [key, fields] : journal.entries()) {
      const eval::SettingResult entry = eval::decode_table_entry(fields);
      const auto trials = static_cast<std::int64_t>(entry.acc.size());
      if (entry.attempts > trials) retries += entry.attempts - trials;
      if (entry.degraded) degraded_lines.push_back(eval::degraded_line(entry));
    }
    std::printf("%s: run journal, %zu entries, %lld retries, %zu degraded\n",
                path.c_str(), journal.size(),
                static_cast<long long>(retries), degraded_lines.size());
    for (const auto& line : degraded_lines) {
      std::printf("  degraded %s\n", line.c_str());
    }
    std::printf("OK\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bdctl verify: CORRUPT: %s\n", e.what());
    return 1;
  }
}

/// `bdctl verify <ledger>`: replays a shard lease ledger and summarizes
/// the fleet's history — per-worker claim/done counts, steals, abandons,
/// plus every lease still outstanding (live, expired, or orphaned). The
/// lease TTL for expiry classification comes from BDPROTO_SHARD_TTL
/// (default 5s), matching what the workers ran with.
int cmd_verify_ledger(const std::string& path) {
  try {
    const shard::LedgerInspection inspection = shard::inspect_ledger(path);
    const auto ttl_ms = static_cast<std::int64_t>(
        env_double("BDPROTO_SHARD_TTL").value_or(5.0) * 1000.0);
    const std::int64_t now = shard::now_ms();
    const shard::LedgerSummary s = inspection.table.summarize(now, ttl_ms);
    std::printf("%s: lease ledger, %zu records, cells=%zu done=%zu "
                "leased=%zu expired=%zu steals=%zu abandons=%zu "
                "heartbeats=%zu\n",
                path.c_str(), inspection.records, s.cells, s.done, s.leased,
                s.expired, s.steals, s.abandons, s.heartbeats);
    for (const auto& [worker, claims] : s.claims_by_worker) {
      const auto done = s.done_by_worker.find(worker);
      std::printf("  %s: claims=%lld done=%lld\n", worker.c_str(),
                  static_cast<long long>(claims),
                  static_cast<long long>(
                      done == s.done_by_worker.end() ? 0 : done->second));
    }
    std::size_t orphaned = 0;
    for (const auto& [key, state] : inspection.table.states()) {
      if (state.phase == shard::LeaseState::Phase::kLeased) {
        std::printf("  %s lease on %s held by %s\n",
                    state.expired(now, ttl_ms) ? "expired" : "live",
                    key.c_str(), state.holder.c_str());
      } else if (state.phase == shard::LeaseState::Phase::kOpen &&
                 state.claims > 0) {
        // Claimed at least once but neither finished nor currently held:
        // every holder died or abandoned, and no worker picked it back up.
        ++orphaned;
        std::printf("  orphaned cell %s (last holder %s, %d lost leases)\n",
                    key.c_str(), state.holder.c_str(),
                    state.steals + state.abandons);
      }
    }
    if (inspection.malformed > 0) {
      std::printf("  %zu malformed line(s) skipped (torn tails fused with "
                  "later appends)\n",
                  inspection.malformed);
    }
    if (inspection.torn_tail) {
      std::printf("  torn final line tolerated (a writer died mid-append)\n");
    }
    if (s.leased > 0 || orphaned > 0) {
      std::printf("OK (%zu lease(s) outstanding, %zu orphaned)\n", s.leased,
                  orphaned);
    } else {
      std::printf("OK\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bdctl verify: CORRUPT: %s\n", e.what());
    return 1;
  }
}

/// `bdctl verify <checkpoint>`: full integrity check + state-dict summary.
/// JSONL files (first byte '{') are dispatched by their field grammar:
/// lease ledgers carry "op" in every record, run journals never do.
int cmd_verify(const std::string& path) {
  {
    std::ifstream probe(path, std::ios::binary);
    if (probe && probe.peek() == '{') {
      std::string first;
      std::getline(probe, first);
      std::string key;
      robust::JournalFields fields;
      if (robust::parse_journal_line(first, key, fields) &&
          fields.count("op") != 0) {
        return cmd_verify_ledger(path);
      }
      return cmd_verify_journal(path);
    }
  }
  try {
    const nn::CheckpointInfo info = nn::inspect_checkpoint(path);
    std::printf("%s: format v%u, %s, %zu entries, %lld elements\n",
                path.c_str(), info.version,
                info.crc_verified ? "CRC ok" : "no CRC (legacy v1)",
                info.entries.size(),
                static_cast<long long>(info.total_elements));
    // The content identity the serve daemon folds into its backbone-LRU
    // key for jobs submitted with this checkpoint (see serve/job.h).
    std::printf("cache key: %s\n",
                serve::checkpoint_cache_key(info).c_str());
    for (const auto& entry : info.entries) {
      std::string shape = "[";
      for (std::size_t d = 0; d < entry.shape.size(); ++d) {
        if (d) shape += ", ";
        shape += std::to_string(entry.shape[d]);
      }
      shape += "]";
      std::printf("  %-40s %-20s %lld\n", entry.name.c_str(), shape.c_str(),
                  static_cast<long long>(entry.numel));
    }
    std::printf("OK\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bdctl verify: CORRUPT: %s\n", e.what());
    return 1;
  }
}

/// Fails fast on a name no factory knows: the training commands check
/// --attack, --arch and --defense before any training, so a typo is a usage
/// error rather than a supervised failure after the backdoor is trained.
void check_names(const Args& args) {
  const auto check = [&args](const char* flag,
                             const std::vector<std::string>& known) {
    const std::string* value = args.last(flag);
    if (value == nullptr ||
        std::find(known.begin(), known.end(), *value) != known.end()) {
      return;
    }
    std::string names;
    for (const std::string& name : known) {
      names += (names.empty() ? "" : "|") + name;
    }
    throw UsageError(std::string("--") + flag + " must be " + names +
                     ", got '" + *value + "'");
  };
  check("attack", attack::known_attacks());
  check("arch", models::known_architectures());
  check("defense", eval::known_defenses());
}

/// The scale the flags select: default_scale(--dataset) with --width.
eval::ExperimentScale scale_from_flags(const Args& args) {
  eval::ExperimentScale scale =
      eval::default_scale(args.get("dataset", "cifar"));
  scale.base_width = args.get_int("width", scale.base_width);
  return scale;
}

/// --seed: the backbone's seed, from which trial seeds are salted.
std::uint64_t seed_from_flags(const Args& args) {
  return static_cast<std::uint64_t>(args.get_int("seed", 1234));
}

/// Rebuilds the deterministic experiment context for the given flags.
eval::BackdooredModel build_context(const Args& args) {
  return eval::prepare_backdoored_model(
      args.get("dataset", "cifar"), args.get("arch", "preactresnet"),
      args.get("attack", "badnet"), scale_from_flags(args),
      seed_from_flags(args));
}

int cmd_train(const Args& args) {
  const std::string out = args.get("out", "model.ckpt");
  const auto bd_model = build_context(args);
  Rng rng(1);
  auto model = bd_model.instantiate(rng);
  nn::save_checkpoint(*model, out);
  std::printf("wrote %s  (baseline ACC=%.2f ASR=%.2f RA=%.2f)\n", out.c_str(),
              bd_model.baseline.acc, bd_model.baseline.asr,
              bd_model.baseline.ra);
  return 0;
}

int cmd_evaluate(const Args& args) {
  const std::string path = args.get("model", "model.ckpt");
  auto bd_model = build_context(args);
  Rng rng(1);
  auto model = bd_model.instantiate(rng);
  nn::load_checkpoint(*model, path);
  const auto m = eval::evaluate_backdoor(*model, bd_model.clean_test,
                                         bd_model.asr_test, bd_model.ra_test);
  std::printf("%s: ACC=%.2f ASR=%.2f RA=%.2f\n", path.c_str(), m.acc, m.asr,
              m.ra);
  return 0;
}

/// `bdctl defend`: the trial a served job with the same flags runs — the
/// scale's defense budgets and the shared trial seed — so the repaired
/// checkpoint equals the one `bdctl submit --model ... --out ...` writes.
int cmd_defend(const Args& args) {
  const std::string out = args.get("out", "repaired.ckpt");
  const auto state = nn::load_state(args.get("model", "model.ckpt"));
  eval::SanitizeRequest req;
  req.defense = args.get("defense", "gradprune");
  req.spc = args.get_int("spc", 10);
  req.seed = seed_from_flags(args) ^ eval::kTrialSeedSalt;
  req.state_override = &state;
  req.keep_model = true;

  const eval::SanitizeOutcome outcome = eval::run_sanitization(
      build_context(args), req, scale_from_flags(args));
  nn::save_checkpoint(*outcome.model, out);
  const auto& info = outcome.info;
  const auto& m = outcome.metrics;
  std::printf("%s (spc=%lld): pruned=%lld ft_epochs=%lld %.1fs\n",
              eval::defense_display_name(req.defense).c_str(),
              static_cast<long long>(req.spc),
              static_cast<long long>(info.pruned_units),
              static_cast<long long>(info.finetune_epochs), info.seconds);
  std::printf("wrote %s  (ACC=%.2f ASR=%.2f RA=%.2f)\n", out.c_str(), m.acc,
              m.asr, m.ra);
  return 0;
}

/// `bdctl profile`: run a deliberately small attack + defense workload with
/// both observability pillars forced on, then print the hierarchical span
/// tree and the busiest metrics. When BDPROTO_TRACE / BDPROTO_METRICS name
/// export paths, the trace/metrics files are written as well.
int cmd_profile(const Args& args) {
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);

  const std::string dataset = args.get("dataset", "cifar");
  const std::string arch = args.get("arch", "preactresnet");
  const std::string attack = args.get("attack", "badnet");
  const std::string defense_name = args.get("defense", "gradprune");
  const auto seed = seed_from_flags(args);
  const std::int64_t spc = args.get_int("spc", 10);
  const auto topk = static_cast<std::size_t>(args.get_int("topk", 10));

  eval::ExperimentScale scale = scale_from_flags(args);
  scale.attack_train.epochs = args.get_int("epochs", 2);
  scale.prune_max_rounds = args.get_int("rounds", 6);
  scale.defense_max_epochs = args.get_int("ft-epochs", 3);

  const auto bd_model =
      eval::prepare_backdoored_model(dataset, arch, attack, scale, seed);

  // Profile one trial the way the bench harness runs it: supervised, so
  // the watchdog/retry machinery shows up in the stats section below.
  scale.trials = 1;
  const eval::SettingResult trial =
      eval::run_setting(bd_model, defense_name, spc, scale,
                        seed ^ eval::kTrialSeedSalt);
  if (trial.degraded) {
    std::fprintf(stderr, "bdctl profile: trial failed: %s\n",
                 trial.failure.c_str());
    return 1;
  }

  std::printf("profiled %s + %s on %s/%s: ACC=%.2f ASR=%.2f RA=%.2f "
              "pruned=%lld (%.1fs)\n",
              attack.c_str(), defense_name.c_str(), dataset.c_str(),
              arch.c_str(), trial.acc[0], trial.asr[0], trial.ra[0],
              static_cast<long long>(trial.pruned[0]), trial.seconds[0]);
  std::printf("gemm kernel: %s, engine threads: %d\n", gemm_kernel_name(),
              runtime::thread_count());
  const robust::SupervisorStats stats = robust::Supervisor::instance().stats();
  std::printf("\n-- supervisor --\n"
              "runs=%lld retries=%lld timeouts=%lld quarantines=%lld "
              "degraded_attempts=%lld\n",
              static_cast<long long>(stats.runs),
              static_cast<long long>(stats.retries),
              static_cast<long long>(stats.timeouts),
              static_cast<long long>(stats.quarantines),
              static_cast<long long>(stats.failures));
  std::printf("\n-- span tree --\n%s", obs::render_span_tree().c_str());
  std::printf("\n-- metrics --\n%s", obs::registry().summary(topk).c_str());
  obs::flush_env_exports();
  return 0;
}

std::string serve_socket(const Args& args) {
  return args.get("socket", "bdserve.sock");
}

/// Client for the daemon: --connect host:port selects TCP, otherwise the
/// --socket Unix path. Retry/deadline policy comes from the environment
/// (BDPROTO_RETRY_BUDGET etc.); `jitter_salt` decorrelates backoff across
/// concurrent clients (loadgen workers).
serve::Client make_client(const Args& args, std::uint64_t jitter_salt = 0) {
  serve::ClientConfig config = serve::ClientConfig::from_env();
  config.jitter_seed ^= jitter_salt;
  if (args.flags.count("connect")) {
    return serve::Client(serve::tcp_endpoint(args.get("connect", "")),
                         config);
  }
  return serve::Client(serve::unix_endpoint(serve_socket(args)), config);
}

/// Builds the submit request's "job" object from the CLI's job flags. Only
/// flags the caller actually passed are emitted, so daemon-side defaults
/// apply to everything else. `seed_override` >= 0 replaces --seed (the
/// load generator uses it to spread jobs across distinct backbones).
std::string job_object_from_flags(const Args& args,
                                  std::int64_t seed_override = -1,
                                  const std::string& client_id_override = "") {
  serve::JsonObject job;
  const auto set_str = [&args, &job](const char* flag, const char* member) {
    if (args.flags.count(flag)) job.set(member, args.get(flag, ""));
  };
  const auto set_int = [&args, &job](const char* flag, const char* member) {
    if (args.flags.count(flag)) job.set_int(member, args.get_int(flag, 0));
  };
  set_str("dataset", "dataset");
  set_str("arch", "arch");
  set_str("attack", "attack");
  set_str("defense", "defense");
  set_int("spc", "spc");
  if (seed_override >= 0) {
    job.set_int("seed", seed_override);
  } else {
    set_int("seed", "seed");
  }
  set_int("width", "width");
  set_int("attack-epochs", "attack_epochs");
  set_int("prune-rounds", "prune_rounds");
  set_int("ft-epochs", "finetune_epochs");
  set_int("train-per-class", "train_per_class");
  set_int("test-per-class", "test_per_class");
  set_str("model", "model");
  set_str("out", "out");
  if (!client_id_override.empty()) {
    job.set("client_id", client_id_override);
  } else {
    set_str("client-id", "client_id");
  }
  return job.str();
}

void print_job(const serve::Json& job) {
  std::printf("%-8s %-11s %-10s %s/%s/%s %s spc=%lld attempts=%lld%s",
              job.get_string("id").c_str(), job.get_string("state").c_str(),
              job.get_string("tenant").c_str(),
              job.get_string("dataset").c_str(),
              job.get_string("arch").c_str(), job.get_string("attack").c_str(),
              job.get_string("defense").c_str(),
              static_cast<long long>(job.get_int("spc", 0)),
              static_cast<long long>(job.get_int("attempts", 0)),
              job.get_bool("cache_hit", false) ? " cache=hit" : "");
  if (job.find("acc") != nullptr) {
    std::printf("  ACC=%.2f ASR=%.2f RA=%.2f pruned=%lld %.1fs",
                job.get_double("acc", 0), job.get_double("asr", 0),
                job.get_double("ra", 0),
                static_cast<long long>(job.get_int("pruned", 0)),
                job.get_double("seconds", 0));
  }
  const std::string error = job.get_string("error");
  if (!error.empty()) std::printf("  error=%s", error.c_str());
  std::printf("\n");
}

/// Blocks until `id` reaches a terminal state via the server-side wait op
/// (re-issued in <= 30s slices: the daemon clamps each wait), printing the
/// final record. Reports "timed out" and "unknown job" distinctly — the
/// daemon's WaitOutcome keeps them apart.
int wait_for_job(const serve::Client& client, const std::string& id,
                 double timeout_seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    double slice = 30.0;
    if (timeout_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - t0;
      const double remaining = timeout_seconds - elapsed.count();
      if (remaining <= 0) {
        std::fprintf(stderr,
                     "bdctl: timed out waiting for %s (job still in flight; "
                     "check later with bdctl jobs)\n",
                     id.c_str());
        return 1;
      }
      slice = remaining < slice ? remaining : slice;
    }
    const serve::Json response = client.request_json_retry(
        serve::JsonObject()
            .set("op", "wait")
            .set("id", id)
            .set_double("timeout", slice)
            .str());
    if (response.get_bool("ok", false)) {
      const serve::Json* job = response.find("job");
      if (job == nullptr) return 1;
      print_job(*job);
      return job->get_string("state") == "done" ? 0 : 1;
    }
    const std::string code = response.get_string("error");
    if (code == "wait_timeout") continue;  // still in flight; next slice
    if (code == "unknown_job") {
      std::fprintf(stderr, "bdctl: no job with id %s on this daemon\n",
                   id.c_str());
      return 1;
    }
    std::fprintf(stderr, "bdctl: wait %s: %s\n", id.c_str(),
                 response.get_string("message").c_str());
    return 1;
  }
}

int cmd_serve(const Args& args) {
  serve::ServerConfig config;
  config.socket_path = serve_socket(args);
  config.listen_address = args.get("listen", "");
  config.max_connections =
      static_cast<std::size_t>(args.get_int("conn-cap", 64));
  config.read_deadline_seconds = args.get_double("read-deadline", 30.0);
  config.write_deadline_seconds = args.get_double("write-deadline", 30.0);
  config.install_signal_handlers = true;  // SIGTERM/SIGINT = graceful drain
  config.service.workers =
      static_cast<std::size_t>(args.get_int("workers", 2));
  config.service.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 16));
  config.service.tenant_quota =
      static_cast<std::size_t>(args.get_int("quota", 4));
  config.service.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 4));
  config.service.journal_path = args.get("journal", "");
  config.service.resume_interrupted = args.get_int("resume", 0) != 0;

  serve::SocketServer server(config);
  const serve::ServiceStats loaded = server.service().stats();
  if (loaded.submitted > 0) {
    std::printf("journal: %lld jobs (%lld done, %lld failed, %lld cancelled, "
                "%lld interrupted)\n",
                static_cast<long long>(loaded.submitted),
                static_cast<long long>(loaded.done),
                static_cast<long long>(loaded.failed),
                static_cast<long long>(loaded.cancelled),
                static_cast<long long>(loaded.interrupted));
  }
  std::printf("serving on %s%s%s (workers=%zu queue=%zu quota=%zu cache=%zu "
              "conn-cap=%zu)\n",
              config.socket_path.c_str(),
              config.listen_address.empty() ? "" : " + tcp ",
              config.listen_address.c_str(), config.service.workers,
              config.service.queue_capacity, config.service.tenant_quota,
              config.service.cache_capacity, config.max_connections);
  std::fflush(stdout);
  server.run();
  std::printf("shut down cleanly\n");
  return 0;
}

int cmd_submit(const Args& args) {
  const serve::Client client = make_client(args);
  const std::string tenant = args.get("tenant", "default");
  serve::JsonObject request;
  request.set("op", "submit")
      .set("tenant", tenant)
      .set_raw("job", job_object_from_flags(args));
  // Retried submits are only duplicate-safe with --client-id; without one
  // a transport failure after the daemon enqueued would re-enqueue.
  const serve::Json response =
      args.flags.count("client-id") != 0
          ? client.request_json_retry(request.str())
          : client.request_json(request.str());
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "bdctl submit: %s: %s\n",
                 response.get_string("error", "error").c_str(),
                 response.get_string("message").c_str());
    return 1;
  }
  const std::string id = response.get_string("id");
  if (response.get_bool("dedup", false)) {
    std::printf("deduplicated to %s (tenant=%s, state=%s)\n", id.c_str(),
                tenant.c_str(), response.get_string("state").c_str());
  } else {
    std::printf("submitted %s (tenant=%s)\n", id.c_str(), tenant.c_str());
  }
  if (args.get_int("wait", 0) == 0) return 0;
  return wait_for_job(client, id,
                      static_cast<double>(args.get_int("timeout", 600)));
}

int cmd_jobs(const Args& args) {
  const serve::Client client = make_client(args);
  serve::JsonObject request;
  request.set("op", "jobs");
  if (args.flags.count("tenant")) request.set("tenant", args.get("tenant", ""));
  const serve::Json response = client.request_json(request.str());
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "bdctl jobs: %s\n",
                 response.get_string("message").c_str());
    return 1;
  }
  const serve::Json* jobs = response.find("jobs");
  if (jobs == nullptr || !jobs->is_array()) return 1;
  for (const serve::Json& job : jobs->items()) print_job(job);
  std::printf("%zu job(s)\n", jobs->items().size());
  return 0;
}

int cmd_cancel(const Args& args) {
  const serve::Client client = make_client(args);
  const std::string id = args.get("id", "");
  const serve::Json response = client.request_json(
      serve::JsonObject().set("op", "cancel").set("id", id).str());
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "bdctl cancel: %s: %s\n",
                 response.get_string("error", "error").c_str(),
                 response.get_string("message").c_str());
    return 1;
  }
  std::printf("%s %s\n", id.c_str(), response.get_string("state").c_str());
  return 0;
}

int cmd_shutdown(const Args& args) {
  const serve::Client client = make_client(args);
  const bool drain = args.get_int("drain", 1) != 0;
  serve::JsonObject request;
  request.set("op", "shutdown");
  request.set_bool("drain", drain);
  const serve::Json response = client.request_json(request.str());
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "bdctl shutdown: %s\n",
                 response.get_string("message").c_str());
    return 1;
  }
  std::printf("daemon shutting down (%s)\n",
              drain ? "draining queued jobs"
                    : "abandoning queued jobs; a restart reports them "
                      "interrupted");
  return 0;
}

/// Load generator: submits --jobs jobs round-robin across --tenants
/// synthetic tenants from --concurrency client threads, backing off on
/// admission rejections and retrying transport faults/sheds through the
/// resilient client, then waits for every job and reports throughput plus
/// retry/dedup counts and the daemon's cache stats. --idempotent 1
/// (default) stamps each job with a deterministic client_id derived from
/// --seed and the job index, so retried submits (and a rerun of the same
/// loadgen against a restarted daemon) dedup instead of duplicating.
int cmd_loadgen(const Args& args) {
  const std::int64_t total = args.get_int("jobs", 8);
  const std::int64_t tenants =
      std::max<std::int64_t>(args.get_int("tenants", 2), 1);
  const std::int64_t distinct =
      std::max<std::int64_t>(args.get_int("distinct", 1), 1);
  const std::int64_t base_seed = args.get_int("seed", 1234);
  const std::int64_t concurrency = std::min<std::int64_t>(
      std::max<std::int64_t>(args.get_int("concurrency", 1), 1), 64);
  const bool idempotent = args.get_int("idempotent", 1) != 0;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> ids(static_cast<std::size_t>(total));
  std::atomic<std::int64_t> rejections{0};
  std::atomic<std::int64_t> transport_retries{0};
  std::atomic<std::int64_t> dedups{0};
  std::atomic<bool> failed{false};

  const auto submit_range = [&](std::int64_t worker) {
    const serve::Client client =
        make_client(args, static_cast<std::uint64_t>(worker) + 1);
    for (std::int64_t i = worker; i < total && !failed.load();
         i += concurrency) {
      // Deterministic idempotency key: stable across retries AND across
      // reruns of the same loadgen invocation against one journal.
      const std::string client_id =
          idempotent ? "lg-" + std::to_string(base_seed) + "-" +
                           std::to_string(i)
                     : "";
      const std::string raw =
          job_object_from_flags(args, base_seed + i % distinct, client_id);
      serve::JsonObject request;
      request.set("op", "submit")
          .set("tenant", "tenant" + std::to_string(i % tenants))
          .set_raw("job", raw);
      for (;;) {
        int retries = 0;
        serve::Json response;
        try {
          response = client.request_json_retry(request.str(), &retries);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bdctl loadgen: job %lld: %s\n",
                       static_cast<long long>(i), e.what());
          failed.store(true);
          return;
        }
        transport_retries.fetch_add(retries);
        if (response.get_bool("ok", false)) {
          ids[static_cast<std::size_t>(i)] = response.get_string("id");
          if (response.get_bool("dedup", false)) dedups.fetch_add(1);
          break;
        }
        const std::string code = response.get_string("error");
        if (code == "queue_full" || code == "quota_exceeded") {
          rejections.fetch_add(1);  // admission pushback: expected
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          continue;
        }
        std::fprintf(stderr, "bdctl loadgen: %s: %s\n", code.c_str(),
                     response.get_string("message").c_str());
        failed.store(true);
        return;
      }
    }
  };

  std::vector<std::thread> submitters;
  for (std::int64_t w = 0; w < concurrency; ++w) {
    submitters.emplace_back(submit_range, w);
  }
  for (auto& t : submitters) t.join();
  if (failed.load()) return 1;

  const serve::Client client = make_client(args);
  std::map<std::string, std::int64_t> states;
  for (const std::string& id : ids) {
    for (;;) {
      const serve::Json response = client.request_json_retry(
          serve::JsonObject().set("op", "status").set("id", id).str());
      const serve::Json* job = response.find("job");
      if (job == nullptr) return 1;
      const std::string state = job->get_string("state");
      if (state != "queued" && state != "running") {
        ++states[state];
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  std::string breakdown;
  for (const auto& [state, count] : states) {
    breakdown += " " + state + "=" + std::to_string(count);
  }
  std::printf("loadgen: %lld jobs in %.1fs (%.1f jobs/min),%s, "
              "%lld admission rejections (retried)\n",
              static_cast<long long>(total), elapsed.count(),
              elapsed.count() > 0 ? 60.0 * static_cast<double>(total) /
                                        elapsed.count()
                                  : 0.0,
              breakdown.c_str(),
              static_cast<long long>(rejections.load()));
  std::printf("client: transport_retries=%lld dedup=%lld concurrency=%lld\n",
              static_cast<long long>(transport_retries.load()),
              static_cast<long long>(dedups.load()),
              static_cast<long long>(concurrency));

  const serve::Json stats =
      client.request_json_retry(serve::JsonObject().set("op", "stats").str());
  const serve::Json* cache = stats.find("cache");
  if (cache != nullptr) {
    std::printf("cache: hits=%lld misses=%lld evictions=%lld size=%lld\n",
                static_cast<long long>(cache->get_int("hits", 0)),
                static_cast<long long>(cache->get_int("misses", 0)),
                static_cast<long long>(cache->get_int("evictions", 0)),
                static_cast<long long>(cache->get_int("size", 0)));
  }
  return 0;
}

/// `bdctl shard run [flags] -- <bench command...>`; `args.command` is
/// the `run` word.
int cmd_shard(const Args& args) {
  if (args.command != "run") return usage();
  shard::CoordinatorOptions options;
  for (const auto& [flag, values] : args.flags) {
    if (flag == "worker-faults") {
      for (const std::string& value : values) {
        const std::size_t colon = value.find(':');
        if (colon == std::string::npos) {
          throw UsageError("shard run: --worker-faults wants IDX:SPEC (e.g. "
                           "2:crash_worker@1), got " + value);
        }
        options.worker_faults[static_cast<int>(parse_flag<std::int64_t>(
            "--" + flag, value.substr(0, colon)))] = value.substr(colon + 1);
      }
    } else if (flag != "workers" && flag != "journal" && flag != "ledger" &&
               flag != "ttl" && flag != "out" && flag != "resume") {
      throw UsageError("shard run: unknown flag --" + flag);
    }
  }
  options.workers = static_cast<int>(args.get_int("workers", options.workers));
  options.journal_path = args.get("journal", options.journal_path);
  options.ledger_path = args.get("ledger", options.ledger_path);
  options.lease_ttl_seconds = args.get_double("ttl", options.lease_ttl_seconds);
  options.merged_out = args.get("out", options.merged_out);
  options.resume = args.get_int("resume", 0) != 0;
  options.command = args.rest;
  if (options.command.empty()) {
    throw UsageError("shard run: missing '-- <bench command...>'");
  }
  return shard::run_sharded(options).exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "verify") == 0) {
      if (argc != 3) return usage();
      return cmd_verify(argv[2]);
    }
    if (argc >= 2 && std::strcmp(argv[1], "shard") == 0) {
      return cmd_shard(parse_args(argc - 1, argv + 1));
    }
    const Args args = parse_args(argc, argv);
    if (!args.rest.empty()) {
      throw UsageError("only shard run takes '-- <command...>'");
    }
    if (args.command == "train-backdoor" || args.command == "evaluate" ||
        args.command == "defend" || args.command == "profile") {
      check_names(args);
    }
    if (args.command == "train-backdoor") return cmd_train(args);
    if (args.command == "evaluate") return cmd_evaluate(args);
    if (args.command == "defend") return cmd_defend(args);
    if (args.command == "profile") return cmd_profile(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "submit") return cmd_submit(args);
    if (args.command == "jobs") return cmd_jobs(args);
    if (args.command == "cancel") return cmd_cancel(args);
    if (args.command == "shutdown") return cmd_shutdown(args);
    if (args.command == "loadgen") return cmd_loadgen(args);
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "bdctl: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bdctl: %s\n", e.what());
    return 1;
  }
}
