// Paper-result gate: the shape of the paper's results as tolerance-bounded
// inequalities over BENCH_tables.json, the committed quick-scale snapshot
// of the table benches (tools/bench_tables.py regenerates it): Table I on
// PreActResNet-18 and Table II on VGG-16.
//
// Each check states one claim with its bound. A check that holds today must
// keep holding. A check that fails today stays here as a reported failing
// check: it names the cells that fail and the reason, and the test fails if
// that set of cells changes either way, so a change that moves a table
// cell must update the reason along with the snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace bd {
namespace {

struct Row {
  std::string attack;
  std::string defense;    // "baseline" for the undefended model
  std::int64_t spc = 0;   // 0 for a baseline
  std::map<std::string, std::vector<double>> trials;  // acc, asr, ra, pruned

  double mean(const std::string& metric) const {
    const std::vector<double>& v = trials.at(metric);
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  }
  std::string cell() const {
    return attack + "/" + defense +
           (spc ? "/spc=" + std::to_string(spc) : std::string());
  }
};

using Rows = std::vector<Row>;

Json load_snapshot() {
  const std::string path = std::string(BD_REPO_SOURCE_DIR) +
                           "/BENCH_tables.json";
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  Json doc;
  std::string error;
  if (!in || !Json::parse(text.str(), doc, error)) {
    ADD_FAILURE() << path << ": " << (in ? error : "cannot be read");
  }
  return doc;
}

Rows table_rows(const Json& doc, const std::string& table) {
  Rows rows;
  const Json* t = doc.find("tables") ? doc.find("tables")->find(table)
                                     : nullptr;
  if (!t || !t->find("rows")) return rows;
  for (const Json& r : t->find("rows")->items()) {
    Row row;
    row.attack = r.get_string("attack");
    row.defense = r.get_string("defense");
    row.spc = r.get_int("spc", 0);
    for (const char* metric : {"acc", "asr", "ra", "pruned"}) {
      if (const Json* values = r.find(metric)) {
        for (const Json& v : values->items()) {
          row.trials[metric].push_back(v.as_number());
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

const Row* baseline_of(const Rows& rows, const std::string& attack) {
  for (const Row& r : rows) {
    if (r.attack == attack && r.defense == "baseline") return &r;
  }
  return nullptr;
}

std::string fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// One failing cell: its id ("lf/gradprune/spc=2") and the numbers.
struct Violation {
  std::string cell;
  std::string detail;
};

struct Check {
  std::string name;
  std::string claim;
  std::function<std::vector<Violation>(const Rows&)> violations;
  /// Empty: the check holds. Otherwise the cells that fail today...
  std::vector<std::string> failing_cells;
  /// ...and why.
  std::string reason;
};

/// Every row of `defense` whose mean `metric` breaks `ok`.
std::vector<Violation> each_row(
    const Rows& rows, const std::string& defense, const std::string& metric,
    const std::function<bool(const Row&, double)>& ok,
    const std::string& bound) {
  std::vector<Violation> out;
  for (const Row& r : rows) {
    if (r.defense != defense) continue;
    const double v = r.mean(metric);
    if (!ok(r, v)) out.push_back({r.cell(), metric + " " + fixed2(v) + bound});
  }
  return out;
}

constexpr double kTol = 1e-9;  // the snapshot's numbers are exact

/// The checks that hold on both tables: Table I (PreActResNet-18) and
/// Table II (VGG-16) run the same attacks and defenses. Two more run on
/// both with per-table failing cells (ours_costs_little_acc,
/// more_data_helps_ft_fp_nad), and one on Table II alone.
std::vector<Check> common_checks() {
  std::vector<Check> checks;
  checks.push_back(
      {"baselines_implant",
       "every attack implants before any defense: baseline ASR >= 80",
       [](const Rows& rows) {
         return each_row(rows, "baseline", "asr",
                         [](const Row&, double v) { return v >= 80 - kTol; },
                         " < 80");
       },
       {},
       ""});
  checks.push_back(
      {"ours_removes_backdoor",
       "Ours (Grad-Prune) leaves mean ASR <= 5 in every cell",
       [](const Rows& rows) {
         return each_row(rows, "gradprune", "asr",
                         [](const Row&, double v) { return v <= 5 + kTol; },
                         " > 5");
       },
       {},
       ""});
  checks.push_back(
      {"clp_is_data_free",
       "CLP reads no data, so its rows are identical across SPC",
       [](const Rows& rows) {
         std::vector<Violation> out;
         std::map<std::string, const Row*> first;
         for (const Row& r : rows) {
           if (r.defense != "clp") continue;
           const auto [it, fresh] = first.emplace(r.attack, &r);
           if (!fresh && it->second->trials != r.trials) {
             out.push_back({r.cell(), "differs from " + it->second->cell()});
           }
         }
         return out;
       },
       {},
       ""});
  return checks;
}

/// The cells a check fails on one table today, and why; none where it
/// holds.
struct Failing {
  std::vector<std::string> cells;
  std::string reason;
};

Check ours_costs_little_acc(Failing failing) {
  return {"ours_costs_little_acc",
          "Ours keeps mean ACC within 5 points of the baseline's in every "
          "cell (paper Table I BadNet: 3.0 points lost at SPC 2, 0.9 at SPC "
          "100)",
          [](const Rows& rows) {
            return each_row(
                rows, "gradprune", "acc",
                [&rows](const Row& r, double v) {
                  const Row* base = baseline_of(rows, r.attack);
                  return base && v >= base->mean("acc") - 5 - kTol;
                },
                " more than 5 below the baseline's");
          },
          std::move(failing.cells), std::move(failing.reason)};
}

Check more_data_helps_ft_fp_nad(Failing failing) {
  return {"more_data_helps_ft_fp_nad",
          "FT, FP and NAD do no worse with more data: for every attack, mean "
          "ASR at the larger SPC <= at the smaller one",
          [](const Rows& rows) {
            std::vector<Violation> out;
            for (const Row& hi : rows) {
              if (hi.defense != "ft" && hi.defense != "fp" &&
                  hi.defense != "nad") {
                continue;
              }
              for (const Row& lo : rows) {
                if (lo.attack != hi.attack || lo.defense != hi.defense ||
                    lo.spc >= hi.spc) {
                  continue;
                }
                if (hi.mean("asr") > lo.mean("asr") + kTol) {
                  out.push_back(
                      {hi.cell(), "asr " + fixed2(hi.mean("asr")) + " > " +
                                      fixed2(lo.mean("asr")) + " at spc=" +
                                      std::to_string(lo.spc)});
                }
              }
            }
            return out;
          },
          std::move(failing.cells), std::move(failing.reason)};
}

std::vector<Check> table1_checks() {
  std::vector<Check> checks = common_checks();
  checks.push_back(ours_costs_little_acc(
      {{"badnet/gradprune/spc=2", "lf/gradprune/spc=2"},
       "At SPC 2, BadNet ends at ACC 89.4 against 98.8 and LF at 84.6 "
       "against 100.0. Quick mode's alpha rule judges accuracy on 10 "
       "validation images and its PreActResNet is 8-32 filters wide; where "
       "the ACC goes (pruning or the 2-sample fine-tune) is not yet traced "
       "(ROADMAP item 3)"}));
  checks.push_back(more_data_helps_ft_fp_nad({}));
  return checks;
}

std::vector<Check> table2_checks() {
  std::vector<Check> checks = common_checks();
  checks.push_back(
      {"fp_fails_on_vgg_badnet",
       "FP leaves the VGG BadNet backdoor in: mean ASR >= 50 at every SPC "
       "(paper Table II FP BadNet: 55.7 at SPC 2, 77.0 at SPC 10)",
       [](const Rows& rows) {
         return each_row(rows, "fp", "asr",
                         [](const Row& r, double v) {
                           return r.attack != "badnet" || v >= 50 - kTol;
                         },
                         " < 50");
       },
       {},
       ""});
  checks.push_back(ours_costs_little_acc(
      {{"lf/gradprune/spc=2"},
       "LF at SPC 2 ends at ACC 91.6 against 100.0, pruning one unit per "
       "trial. The paper's anchors are BadNet rows at full scale; where this "
       "quick-scale ACC goes (pruning or the 2-sample fine-tune) is not yet "
       "traced (ROADMAP item 3)"}));
  checks.push_back(more_data_helps_ft_fp_nad(
      {{"badnet/fp/spc=10"},
       "FP on VGG BadNet rises from ASR 95.3 at SPC 2 to 100.0 at SPC 10; "
       "the paper's own Table II FP BadNet row rises too (55.7 to 77.0) "
       "before it falls at SPC 100, which quick mode does not run"}));
  return checks;
}

/// Prints every check over `rows` and fails where the set of failing
/// cells differs from the one the check records.
void run_checks(const Rows& rows, const std::vector<Check>& checks) {
  for (const Check& check : checks) {
    const std::vector<Violation> found = check.violations(rows);
    std::vector<std::string> cells;
    for (const Violation& v : found) cells.push_back(v.cell);
    const bool known = !check.failing_cells.empty();
    std::printf("shape check %-28s %s\n  claim: %s\n", check.name.c_str(),
                found.empty() ? "holds" : "FAILS", check.claim.c_str());
    for (const Violation& v : found) {
      std::printf("  %s: %s\n", v.cell.c_str(), v.detail.c_str());
    }
    if (known) std::printf("  reason: %s\n", check.reason.c_str());
    EXPECT_EQ(cells, check.failing_cells)
        << check.name << ": "
        << (known ? "the failing cells changed; update them and the reason"
                  : "a check that held now fails");
  }
}

TEST(ShapeCheck, SnapshotIsWellFormed) {
  const Json doc = load_snapshot();
  const Json* host = doc.find("host");
  ASSERT_NE(host, nullptr);
  for (const char* field : {"cores", "engine_threads", "shard_workers",
                            "build_type", "compiler"}) {
    EXPECT_NE(host->find(field), nullptr) << "host stamp lacks " << field;
  }
  // Tables I and II: 4 attacks; 7 defenses at quick mode's SPC {2, 10}.
  for (const char* table : {"table1", "table2"}) {
    const Rows rows = table_rows(doc, table);
    std::size_t baselines = 0;
    for (const Row& r : rows) {
      if (r.defense == "baseline") {
        ++baselines;
        continue;
      }
      EXPECT_GT(r.spc, 0) << table << " " << r.cell();
      const std::size_t trials = r.trials.at("acc").size();
      EXPECT_GE(trials, 1u) << table << " " << r.cell();
      for (const char* metric : {"asr", "ra", "pruned"}) {
        EXPECT_EQ(r.trials.at(metric).size(), trials)
            << table << " " << r.cell() << metric;
      }
    }
    EXPECT_EQ(baselines, 4u) << table;
    EXPECT_EQ(rows.size() - baselines, 4u * 7u * 2u) << table;
  }
}

TEST(ShapeCheck, TableI) {
  const Rows rows = table_rows(load_snapshot(), "table1");
  ASSERT_FALSE(rows.empty()) << "BENCH_tables.json has no table1 rows";
  run_checks(rows, table1_checks());
}

TEST(ShapeCheck, TableII) {
  const Rows rows = table_rows(load_snapshot(), "table2");
  ASSERT_FALSE(rows.empty()) << "BENCH_tables.json has no table2 rows";
  run_checks(rows, table2_checks());
}

}  // namespace
}  // namespace bd
