#include "eval/table_bench.h"

#include <cstdio>
#include <stdexcept>

#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace bd::eval {

namespace {

std::string join_doubles(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += robust::exact_double(v[i]);
  }
  return out;
}

std::string join_ints(const std::vector<std::int64_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

std::string field(const robust::JournalFields& fields, const char* name) {
  const auto it = fields.find(name);
  return it == fields.end() ? std::string() : it->second;
}

/// Canonical description of everything that shapes a cell's numbers: the
/// journal key must change whenever any of this does, so a resumed run
/// never reuses results computed under different settings.
std::string scale_signature(const TableSpec& spec,
                            const ExperimentScale& s) {
  std::string sig = spec.dataset + '|' + spec.arch + '|' +
                    std::to_string(base_seed()) +
                    backbone_scale_signature(s);
  const auto add_i = [&sig](std::int64_t v) {
    sig += '|';
    sig += std::to_string(v);
  };
  add_i(s.trials);
  add_i(s.defense_max_epochs);
  add_i(s.prune_max_rounds);
  add_i(s.anp_iterations);
  add_i(s.nad_teacher_epochs);
  add_i(s.nad_distill_epochs);
  for (const auto spc : s.spc_settings) add_i(spc);
  return sig;
}

bool is_baseline(const SettingResult& s) { return s.defense.empty(); }

/// `head` followed by the result's ACC, ASR, RA and Pruned columns: mean ±
/// std over its trials, "degraded" when it could not complete, and no
/// pruned count for a baseline.
std::vector<std::string> metric_row(std::vector<std::string> head,
                                    const SettingResult& s) {
  const std::vector<double> pruned(s.pruned.begin(), s.pruned.end());
  for (const auto* metric : {&s.acc, &s.asr, &s.ra}) {
    head.push_back(s.degraded ? "degraded" : mean_std_string(*metric));
  }
  head.push_back(s.degraded         ? "degraded"
                 : is_baseline(s) ? "-"
                                  : mean_std_string(pruned, 1));
  return head;
}

robust::JournalFields encode_entry(const SettingResult& s) {
  robust::JournalFields f{{"cell", is_baseline(s) ? "baseline" : "setting"},
                          {"attack", s.attack},
                          {"acc", join_doubles(s.acc)},
                          {"asr", join_doubles(s.asr)},
                          {"ra", join_doubles(s.ra)},
                          {"attempts", std::to_string(s.attempts)}};
  if (!is_baseline(s)) {
    f["defense"] = s.defense;
    f["spc"] = std::to_string(s.spc);
    f["seconds"] = join_doubles(s.seconds);
    f["pruned"] = join_ints(s.pruned);
    f["recoveries"] = join_ints(s.recoveries);
  }
  if (s.degraded) {
    f["degraded"] = "1";
    f["error"] = s.failure;
  }
  return f;
}

/// One (SPC, defense) cell with its pre-drawn seed and journal key.
struct Cell {
  std::int64_t spc;
  const TableDefense* defense;
  std::uint64_t seed;
  std::string key;
};

/// Everything one attack contributes to the table, in canonical order.
struct AttackPlan {
  std::string attack;
  std::uint64_t model_seed;
  std::string base_key;
  std::vector<Cell> cells;
};

/// Derives the full cell plan. Seeds are drawn up front in the order an
/// uninterrupted run would draw them, so skipping completed cells — or
/// splitting the plan across shard workers — never shifts the seeds of
/// the remaining ones. Every process running the same spec derives the
/// identical plan; the keys double as lease-ledger work items.
std::vector<AttackPlan> build_plan(const TableSpec& spec,
                                   const ExperimentScale& scale,
                                   const std::string& sig,
                                   std::uint64_t seed) {
  std::vector<AttackPlan> plan;
  plan.reserve(spec.attacks.size());
  for (const auto& attack : spec.attacks) {
    Rng seeder(seed ^ std::hash<std::string>{}(attack + spec.arch));
    AttackPlan ap;
    ap.attack = attack;
    ap.model_seed = seeder.next_u64();
    for (const auto spc : scale.spc_settings) {
      for (const auto& defense : spec.defenses) {
        ap.cells.push_back({spc, &defense, seeder.next_u64(),
                            robust::stable_hash_hex(
                                "cell|" + sig + '|' + attack + '|' +
                                defense.label + '|' + std::to_string(spc))});
      }
    }
    ap.base_key = robust::stable_hash_hex("baseline|" + sig + '|' + attack);
    plan.push_back(std::move(ap));
  }
  return plan;
}

/// One work item: an attack's baseline (`cell` null) or one of its cells.
struct Item {
  const AttackPlan* plan;
  const Cell* cell;

  const std::string& key() const {
    return cell != nullptr ? cell->key : plan->base_key;
  }
};

/// The canonical work list: each baseline leads its attack's cells, so the
/// expensive preparation tends to be claimed (and cached) first.
std::vector<Item> plan_items(const std::vector<AttackPlan>& plan) {
  std::vector<Item> items;
  for (const AttackPlan& ap : plan) {
    items.push_back({&ap, nullptr});
    for (const Cell& cell : ap.cells) items.push_back({&ap, &cell});
  }
  return items;
}

/// The item's result when it cannot run: `reason` as its failure.
SettingResult degraded_result(const Item& item, const std::string& reason) {
  SettingResult s;
  s.attack = item.plan->attack;
  if (item.cell != nullptr) {
    s.defense = item.cell->defense->label;
    s.spc = item.cell->spc;
  } else {
    s.acc = s.asr = s.ra = {0.0};
  }
  s.degraded = true;
  s.failure = reason;
  return s;
}

/// Runs plan items for both execution modes: prepares each item's attack
/// lazily (under the supervisor, cached for the most recent attack only:
/// backdoored models are big and canonical order keeps switches rare),
/// produces the baseline or the cell's SettingResult, and journals it.
class ItemRunner {
 public:
  ItemRunner(const TableSpec& spec, const ExperimentScale& scale,
             robust::RunJournal& journal)
      : spec_(spec), scale_(scale), journal_(journal) {}

  SettingResult run(const Item& item) {
    prepare(*item.plan);
    if (item.cell == nullptr) return record(item, baseline_);
    if (!bd_.has_value()) {
      // The attack preparation degraded permanently: every cell that
      // depends on it inherits the failure instead of running.
      return record(item, degraded_result(item, baseline_.failure));
    }
    const Cell& cell = *item.cell;
    BD_OBS_SPAN_ARG("bench.cell", cell.spc);
    BD_OBS_COUNT("bench.cells_run", 1);
    Stopwatch cell_watch;
    const SettingResult setting =
        run_setting(*bd_, cell.defense->label, cell.defense->factory, cell.spc,
                    scale_, cell.seed);
    BD_OBS_OBSERVE("bench.cell_seconds", cell_watch.seconds(),
                   ::bd::obs::seconds_buckets());
    record(item, setting);
    // The journal entry above is flushed; a kill here loses nothing.
    robust::FaultInjector::instance().fire_crash(
        "bench cell " + setting.attack + "/" + setting.defense +
        "/spc=" + std::to_string(setting.spc));
    return setting;
  }

  /// Journals `reason` as the item's result without running it.
  SettingResult degrade(const Item& item, const std::string& reason) {
    return record(item, degraded_result(item, reason));
  }

 private:
  void prepare(const AttackPlan& ap) {
    if (prepared_ == &ap) return;
    BD_OBS_SPAN("bench.attack_prepare");
    const robust::RunReport prep = robust::Supervisor::instance().run(
        "prepare|" + ap.attack + "|" + spec_.arch, [&] {
          bd_.reset();
          bd_.emplace(prepare_backdoored_model(spec_.dataset, spec_.arch,
                                               ap.attack, scale_,
                                               ap.model_seed));
        });
    if (prep.ok()) {
      baseline_ = SettingResult{};
      baseline_.attack = ap.attack;
      baseline_.acc = {bd_->baseline.acc};
      baseline_.asr = {bd_->baseline.asr};
      baseline_.ra = {bd_->baseline.ra};
    } else {
      bd_.reset();
      baseline_ = degraded_result({&ap, nullptr},
                                  "attack preparation failed: " + prep.failure);
      BD_LOG(Warn) << ap.attack << ": " << baseline_.failure
                   << "; every cell of this attack degrades";
    }
    baseline_.attempts = prep.attempts;
    prepared_ = &ap;
  }

  /// Journal appends are supervised too (retries ride out transient I/O
  /// failures), but a permanently unwritable journal is fatal: continuing
  /// would silently break the resume contract.
  const SettingResult& record(const Item& item, const SettingResult& result) {
    if (!journal_.enabled()) return result;
    const robust::RunReport report = robust::Supervisor::instance().run(
        "journal|" + journal_.path(),
        [&] { journal_.record(item.key(), encode_entry(result)); });
    if (!report.ok()) {
      throw std::runtime_error("journal '" + journal_.path() +
                               "': append failed permanently: " +
                               report.failure);
    }
    return result;
  }

  const TableSpec& spec_;
  const ExperimentScale& scale_;
  robust::RunJournal& journal_;
  const AttackPlan* prepared_ = nullptr;
  std::optional<BackdooredModel> bd_;
  SettingResult baseline_;
};

/// Shard-worker mode: claim items through the lease ledger, run and journal
/// each, print worker stats. No table — the coordinator's merge pass
/// (resume run, sharding off) renders it from the journal.
TableRun run_worker(const std::vector<Item>& items, ItemRunner& runner,
                    const robust::RunJournal& journal,
                    const shard::ShardConfig& config) {
  BD_OBS_SPAN("bench.shard_worker");
  if (!journal.enabled()) {
    throw std::runtime_error(
        "shard worker needs a journal (BDPROTO_JOURNAL): cell results must "
        "be durable for the coordinator's merge pass");
  }
  std::vector<std::string> keys;
  for (const Item& item : items) keys.push_back(item.key());

  TableRun run;
  shard::WorkerSession session(config);
  const shard::WorkerStats stats = session.run_all(
      keys,
      [&](std::size_t index) {
        if (journal.has(keys[index])) {
          // Already durable: a resumed run, or a steal from a worker that
          // died after journaling but before its done record landed.
          ++run.resumed_cells;
          return;
        }
        runner.run(items[index]);
      },
      [&](std::size_t index, const std::string& reason) {
        if (!journal.has(keys[index])) runner.degrade(items[index], reason);
      });
  std::printf("shard worker %s: claimed=%lld stolen=%lld completed=%lld "
              "quarantined=%lld resumed=%zu\n",
              config.worker_id.c_str(),
              static_cast<long long>(stats.claimed),
              static_cast<long long>(stats.stolen),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.quarantined), run.resumed_cells);
  run.worker_stats = stats;
  return run;
}

/// Prints the table (and scatter series) from the items' results, given
/// in canonical item order.
void render_table(const TableSpec& spec, const ExperimentScale& scale,
                  const std::vector<SettingResult>& results, TableRun& run) {
  std::printf("== %s ==\n", spec.title.c_str());
  std::printf("dataset=%s arch=%s mode=%s trials=%d spc={", spec.dataset.c_str(),
              spec.arch.c_str(), full_mode() ? "full" : "quick", scale.trials);
  for (std::size_t i = 0; i < scale.spc_settings.size(); ++i) {
    std::printf("%s%lld", i ? "," : "",
                static_cast<long long>(scale.spc_settings[i]));
  }
  std::printf("}\n\n");

  TextTable table({"Attack", "SPC", "Defense", "ACC", "ASR", "RA", "Pruned"});
  std::vector<std::string> degraded_lines;  // summary printed after the table
  for (const SettingResult& r : results) {
    if (r.degraded) degraded_lines.push_back(degraded_line(r));
    if (is_baseline(r)) {
      run.baselines.emplace_back(
          r.attack,
          BackdoorMetrics{mean_of(r.acc), mean_of(r.asr), mean_of(r.ra)});
      table.add_row(metric_row({r.attack, "-", "Baseline"}, r));
    } else {
      table.add_row(metric_row(
          {r.attack, std::to_string(r.spc), defense_display_name(r.defense)},
          r));
      run.settings.push_back(r);
    }
  }

  run.degraded_cells = degraded_lines.size();
  std::printf("%s\n", table.to_string().c_str());
  if (!degraded_lines.empty()) {
    std::printf("degraded cells: %zu\n", degraded_lines.size());
    for (const auto& line : degraded_lines) {
      std::printf("  %s\n", line.c_str());
    }
    std::printf("\n");
  }

  if (spec.scatter) {
    // Figure series: one (ASR, ACC) and (ASR, RA) point per trial.
    std::printf("# scatter: defense,attack,spc,trial,asr,acc,ra\n");
    for (const auto& s : run.settings) {
      for (std::size_t t = 0; t < s.asr.size(); ++t) {
        std::printf("scatter,%s,%s,%lld,%zu,%.2f,%.2f,%.2f\n",
                    s.defense.c_str(), s.attack.c_str(),
                    static_cast<long long>(s.spc), t + 1, s.asr[t], s.acc[t],
                    s.ra[t]);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

TableDefense::TableDefense(const char* name)
    : TableDefense(std::string(name)) {}

TableDefense::TableDefense(std::string name)
    : label(name),
      factory([name = std::move(name)](const ExperimentScale& scale) {
        return make_defense(name, scale);
      }) {}

TableDefense::TableDefense(std::string variant, DefenseFactory build)
    : label(std::move(variant)), factory(std::move(build)) {}

SettingResult decode_table_entry(const robust::JournalFields& f) {
  SettingResult s;
  s.attack = field(f, "attack");
  s.defense = field(f, "defense");
  s.spc = robust::journal_number<std::int64_t>(f, "spc", 0);
  s.acc = robust::journal_numbers<double>(f, "acc");
  s.asr = robust::journal_numbers<double>(f, "asr");
  s.ra = robust::journal_numbers<double>(f, "ra");
  s.seconds = robust::journal_numbers<double>(f, "seconds");
  s.pruned = robust::journal_numbers<std::int64_t>(f, "pruned");
  s.recoveries = robust::journal_numbers<std::int64_t>(f, "recoveries");
  s.attempts = robust::journal_number<std::int64_t>(f, "attempts", 0);
  s.degraded = field(f, "degraded") == "1";
  s.failure = field(f, "error");
  return s;
}

std::string degraded_line(const SettingResult& s) {
  const std::string label =
      is_baseline(s) ? s.attack + "/baseline"
                     : s.attack + "/" + s.defense +
                           "/spc=" + std::to_string(s.spc);
  return label + ": " + s.failure + " (attempts=" +
         std::to_string(s.attempts) + ")";
}

TableRun run_table(const TableSpec& spec) {
  BD_OBS_SPAN("bench.table");
  Stopwatch watch;
  const ExperimentScale scale =
      spec.scale ? *spec.scale : default_scale(spec.dataset);

  std::string journal_path = spec.journal_path;
  if (journal_path.empty()) {
    journal_path = env_string("BDPROTO_JOURNAL").value_or("");
  }
  const bool resume =
      spec.resume.value_or(env_int("BDPROTO_RESUME").value_or(0) != 0);
  robust::RunJournal journal = journal_path.empty()
                                   ? robust::RunJournal()
                                   : robust::RunJournal(journal_path);
  if (resume && !journal.enabled()) {
    BD_LOG(Warn) << "BDPROTO_RESUME is set but no journal is configured "
                    "(set BDPROTO_JOURNAL); running from scratch";
  }
  if (resume && journal.size() > 0) {
    BD_LOG(Info) << "resuming from journal '" << journal.path() << "' ("
                 << journal.size() << " completed cells)";
  }
  const std::vector<AttackPlan> plan =
      build_plan(spec, scale, scale_signature(spec, scale), base_seed());
  const std::vector<Item> items = plan_items(plan);
  ItemRunner runner(spec, scale, journal);

  const std::optional<shard::ShardConfig> shard_config =
      spec.shard.has_value() ? spec.shard : shard::shard_config_from_env();
  if (shard_config.has_value()) {
    return run_worker(items, runner, journal, *shard_config);
  }

  // In-process: walk the items in canonical order. Journaled items decode
  // instead of running, so a fully journaled attack never trains.
  TableRun run;
  std::vector<SettingResult> results;
  results.reserve(items.size());
  for (const Item& item : items) {
    const robust::JournalFields* cached =
        resume ? journal.find(item.key()) : nullptr;
    if (cached == nullptr) {
      results.push_back(runner.run(item));
    } else {
      results.push_back(decode_table_entry(*cached));
      if (item.cell != nullptr) {
        ++run.resumed_cells;
        BD_OBS_COUNT("bench.cells_resumed", 1);
      }
    }
  }
  render_table(spec, scale, results, run);
  std::printf("total: %.1fs\n\n", watch.seconds());
  return run;
}

}  // namespace bd::eval
