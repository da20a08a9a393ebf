// Sharded-execution tests: the lease file (claims, strikes, the done
// flag, a killed holder's lease freed at once, OFD locks conflicting
// inside one process, a racing claim admitting exactly one winner, a
// foreign table or torn initialization), the multi-writer run journal,
// cross-process quarantine strikes, and the headline crash-resilience
// property — a worker SIGKILLed at every cell boundary of a mini-table
// never changes the merged output by a byte.
//
// Fork discipline: the test pins the thread pool to one thread before any
// fork so no pool threads (and no locks they might hold) exist in the
// children; children redirect stdout/stderr and _exit. A LeaseFile is
// never open across a fork: a child sharing the parent's open file
// description would share its leases.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/table_bench.h"
#include "robust/fault_injector.h"
#include "robust/journal.h"
#include "runtime/thread_pool.h"
#include "shard/coordinator.h"
#include "shard/lease_file.h"
#include "shard/worker.h"

namespace bd {
namespace {

using Claim = shard::LeaseFile::Claim;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/bd_shard_test_" + name + "_" +
              std::to_string(::getpid())) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

shard::LeaseSummary summary_of(const std::string& path) {
  return shard::summarize(shard::inspect_leases(path));
}

shard::ShardConfig worker_config(const std::string& leases,
                                 const std::string& id) {
  shard::ShardConfig config;
  config.lease_path = leases;
  config.worker_id = id;
  config.poll_interval_seconds = 0.01;
  return config;
}

// ---------------------------------------------------------------------------
// Lease file
// ---------------------------------------------------------------------------

TEST(LeaseFile, ClaimsAreStrikesAndDoneIsTerminal) {
  TempFile file("lifecycle");
  const std::vector<std::string> keys = {"a", "b"};
  std::uint32_t prior = 9;
  {
    shard::LeaseFile first(file.path(), keys);
    ASSERT_EQ(first.try_claim(0, &prior), Claim::kWon);
    EXPECT_EQ(prior, 0u);
    const shard::LeaseSummary held = summary_of(file.path());
    EXPECT_EQ(held.live, 1u);
    EXPECT_EQ(held.orphaned, 0u);
  }  // closed unfinished: the lease is gone, the claim stays a strike
  EXPECT_TRUE(shard::is_lease_file(file.path()));
  const shard::LeaseSummary orphaned = summary_of(file.path());
  EXPECT_EQ(orphaned.live, 0u);
  EXPECT_EQ(orphaned.orphaned, 1u);

  shard::LeaseFile second(file.path(), keys);
  ASSERT_EQ(second.try_claim(0, &prior), Claim::kWon);
  EXPECT_EQ(prior, 1u);
  second.finish(0);
  EXPECT_EQ(second.try_claim(0, &prior), Claim::kDone);
  const shard::LeaseSummary s = summary_of(file.path());
  EXPECT_EQ(s.cells, 2u);
  EXPECT_EQ(s.done, 1u);
  EXPECT_EQ(s.steals, 1u);
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.orphaned, 0u);
}

TEST(LeaseFile, KilledHolderFreesItsCellAtOnce) {
  runtime::set_thread_count(1);
  TempFile file("killed");
  const std::vector<std::string> keys = {"a", "b"};
  { shard::LeaseFile create(file.path(), keys); }
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(ready[0]);
    shard::LeaseFile leases(file.path(), keys);
    std::uint32_t prior = 0;
    const char won = leases.try_claim(0, &prior) == Claim::kWon ? '1' : '0';
    (void)!::write(ready[1], &won, 1);
    for (;;) ::pause();  // hold the lease until killed
  }
  ::close(ready[1]);
  struct Reaper {
    pid_t pid;
    ~Reaper() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } reaper{pid};
  char won = 0;
  ASSERT_EQ(::read(ready[0], &won, 1), 1);
  ::close(ready[0]);
  ASSERT_EQ(won, '1');

  shard::LeaseFile leases(file.path(), keys);
  std::uint32_t prior = 0;
  EXPECT_EQ(leases.try_claim(0, &prior), Claim::kHeld);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  reaper.pid = 0;
  ASSERT_TRUE(WIFSIGNALED(status));
  // No sleep: the kernel dropped the dead holder's lease before waitpid
  // returned.
  ASSERT_EQ(leases.try_claim(0, &prior), Claim::kWon);
  EXPECT_EQ(prior, 1u);
}

TEST(LeaseFile, SecondSessionInOneProcessCannotClaimAHeldCell) {
  TempFile file("two_sessions");
  const std::vector<std::string> keys = {"a", "b"};
  int refused = 0;
  const shard::WorkerStats stats = shard::run_session(
      worker_config(file.path(), "w1"), keys,
      [&](std::size_t index) {
        // OFD locks belong to the open file description, so a second
        // lease file in this very process conflicts with the session's
        // lease (a classic fcntl lock would be granted: same process).
        shard::LeaseFile other(file.path(), keys);
        std::uint32_t prior = 0;
        if (other.try_claim(index, &prior) == Claim::kHeld) ++refused;
      },
      [](std::size_t, const std::string&) {});
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(stats.claimed, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.stolen, 0);
}

// Claims racing from separate processes, each holding its lease until
// every racer has tried: exactly one wins.
TEST(LeaseFile, ForkedClaimRaceAdmitsExactlyOneWinner) {
  runtime::set_thread_count(1);
  TempFile file("race");
  const std::vector<std::string> keys = {"contested"};
  { shard::LeaseFile create(file.path(), keys); }

  int go[2];
  int results[2];
  int release[2];
  ASSERT_EQ(::pipe(go), 0);
  ASSERT_EQ(::pipe(results), 0);
  ASSERT_EQ(::pipe(release), 0);
  constexpr int kRacers = 4;
  std::vector<pid_t> children;
  for (int i = 0; i < kRacers; ++i) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(go[1]);
      ::close(results[0]);
      ::close(release[1]);
      char byte = 0;
      (void)!::read(go[0], &byte, 1);  // EOF once every racer exists
      shard::LeaseFile leases(file.path(), keys);
      std::uint32_t prior = 0;
      const char won =
          leases.try_claim(0, &prior) == Claim::kWon ? '1' : '0';
      (void)!::write(results[1], &won, 1);
      (void)!::read(release[0], &byte, 1);  // hold the lease until EOF
      ::_exit(0);
    }
    children.push_back(pid);
  }
  ::close(go[0]);
  ::close(results[1]);
  ::close(release[0]);
  ::close(go[1]);  // start the race
  int winners = 0;
  for (int i = 0; i < kRacers; ++i) {
    char won = 0;
    ASSERT_EQ(::read(results[0], &won, 1), 1);
    winners += won == '1' ? 1 : 0;
  }
  ::close(results[0]);
  ::close(release[1]);  // let the racers exit
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
  }
  EXPECT_EQ(winners, 1);
  const std::vector<shard::SlotState> slots =
      shard::inspect_leases(file.path());
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].claims, 1u);
  EXPECT_FALSE(slots[0].done);
}

TEST(LeaseFile, FileOfAnotherTableFailsNamingItsPath) {
  TempFile file("other_table");
  { shard::LeaseFile create(file.path(), {"a", "b"}); }
  const std::vector<std::vector<std::string>> others = {{"a", "b", "c"},
                                                        {"a", "x"}};
  for (const std::vector<std::string>& keys : others) {
    try {
      shard::LeaseFile leases(file.path(), keys);
      ADD_FAILURE() << "opened a lease file of another table";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file.path()), std::string::npos) << what;
      EXPECT_NE(what.find("another table"), std::string::npos) << what;
    }
  }
  // The file is untouched: its own table still opens.
  EXPECT_NO_THROW(shard::LeaseFile(file.path(), {"a", "b"}));

  spit(file.path(), "{\"key\":\"k\",\"fields\":{}}\n");
  try {
    shard::LeaseFile leases(file.path(), {"a", "b"});
    ADD_FAILURE() << "opened a run journal as a lease file";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
    EXPECT_NE(what.find("not a lease file"), std::string::npos) << what;
  }
  EXPECT_FALSE(shard::is_lease_file(file.path()));
}

TEST(LeaseFile, TornInitializationIsRedone) {
  TempFile file("torn_init");
  const std::vector<std::string> keys = {"a", "b", "c"};
  // A creator killed right after creating the file, or after part of the
  // slots landed, left no header: the next opener initializes the file.
  for (const std::string& torn :
       {std::string(), std::string(32, '\0') + "partial slot bytes"}) {
    spit(file.path(), torn);
    {
      shard::LeaseFile leases(file.path(), keys);
      std::uint32_t prior = 7;
      ASSERT_EQ(leases.try_claim(1, &prior), Claim::kWon);
      EXPECT_EQ(prior, 0u);
      leases.finish(1);
    }
    const std::vector<shard::SlotState> slots =
        shard::inspect_leases(file.path());
    ASSERT_EQ(slots.size(), 3u);
    EXPECT_TRUE(slots[1].done);
    EXPECT_EQ(slots[1].claims, 1u);
    EXPECT_EQ(slots[0].claims, 0u);
    EXPECT_EQ(slots[0].key_hash, robust::stable_hash("a"));
  }
}

// ---------------------------------------------------------------------------
// Multi-writer run journal (satellite: O_APPEND + single write per entry)
// ---------------------------------------------------------------------------

TEST(JournalMultiWriter, ConcurrentAppendsFromForksAllSurvive) {
  runtime::set_thread_count(1);
  TempFile file("journal_mw");
  constexpr int kWriters = 4;
  constexpr int kEntries = 25;

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      robust::RunJournal journal(file.path());
      for (int i = 0; i < kEntries; ++i) {
        journal.record(
            "w" + std::to_string(w) + "_" + std::to_string(i),
            {{"writer", std::to_string(w)}, {"seq", std::to_string(i)}});
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // Every line parses (no interleaved partial lines) and every entry from
  // every writer is present.
  robust::RunJournal merged(file.path());
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kWriters * kEntries));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kEntries; ++i) {
      const robust::JournalFields* fields =
          merged.find("w" + std::to_string(w) + "_" + std::to_string(i));
      ASSERT_NE(fields, nullptr);
      EXPECT_EQ(fields->at("seq"), std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded table execution
// ---------------------------------------------------------------------------

eval::ExperimentScale micro_scale() {
  eval::ExperimentScale s;
  s.data.height = s.data.width = 8;
  s.data.train_per_class = 8;
  s.data.test_per_class = 2;
  s.attack_train.epochs = 1;
  s.base_width = 8;
  s.spc_settings = {2, 5};
  s.trials = 1;
  s.defense_max_epochs = 2;
  s.prune_max_rounds = 3;
  s.anp_iterations = 2;
  s.nad_teacher_epochs = 1;
  s.nad_distill_epochs = 1;
  return s;
}

eval::TableSpec mini_spec(const std::string& journal) {
  eval::TableSpec spec;
  spec.title = "shard mini";
  spec.dataset = "cifar";
  spec.arch = "preactresnet";
  spec.attacks = {"badnet"};
  spec.defenses = {"ft", "clp", "gradprune"};
  spec.scale = micro_scale();  // 2 SPC x 3 defenses = 6 cells + baseline
  spec.journal_path = journal;
  spec.resume = false;
  return spec;
}

/// Forks a shard worker over `spec`; stdout/stderr go to /dev/null. The
/// optional fault spec arms the injector in the child only.
pid_t fork_worker(const eval::TableSpec& spec,
                  const shard::ShardConfig& config,
                  const std::string& fault_spec = "") {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    if (null_fd > STDERR_FILENO) ::close(null_fd);
  }
  if (!fault_spec.empty()) {
    robust::FaultInjector::instance().configure(fault_spec);
  }
  eval::TableSpec child_spec = spec;
  child_spec.shard = config;
  int rc = 0;
  try {
    eval::run_table(child_spec);
  } catch (...) {
    rc = 1;
  }
  ::_exit(rc);
}

/// Renders the merged table from the journal (resume run, sharding off)
/// and returns stdout with the timing footer stripped.
std::string merged_output(const eval::TableSpec& spec) {
  eval::TableSpec merge_spec = spec;
  merge_spec.resume = true;
  ::testing::internal::CaptureStdout();
  eval::run_table(merge_spec);
  const std::string out = ::testing::internal::GetCapturedStdout();
  std::string stripped;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t end = out.find('\n', pos);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(pos, end - pos);
    if (line.rfind("total:", 0) != 0) {
      stripped += line;
      stripped += '\n';
    }
    pos = end + 1;
  }
  return stripped;
}

class ShardTable : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::set_thread_count(1);
    robust::FaultInjector::instance().reset();
  }
  void TearDown() override { robust::FaultInjector::instance().reset(); }
};

TEST_F(ShardTable, SingleWorkerMatchesUnshardedRun) {
  TempFile ref_journal("ref_journal");
  const std::string reference = merged_output(mini_spec(ref_journal.path()));
  ASSERT_NE(reference.find("Baseline"), std::string::npos);

  TempFile journal("single_journal");
  TempFile leases("single_leases");
  const eval::TableSpec spec = mini_spec(journal.path());
  eval::TableSpec worker_spec = spec;
  worker_spec.shard = worker_config(leases.path(), "w1");
  ::testing::internal::CaptureStdout();
  const eval::TableRun run = eval::run_table(worker_spec);
  const std::string worker_out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(run.worker_stats.has_value());
  EXPECT_EQ(run.worker_stats->claimed, 7);  // baseline + 6 cells
  EXPECT_EQ(run.worker_stats->stolen, 0);
  EXPECT_NE(worker_out.find("shard worker w1:"), std::string::npos);
  EXPECT_EQ(run.settings.size(), 0u);  // worker mode prints no table

  EXPECT_EQ(merged_output(spec), reference);
}

TEST_F(ShardTable, WorkerKilledAtEveryCellBoundaryNeverChangesOutput) {
  TempFile ref_journal("chaos_ref_journal");
  const std::string reference =
      merged_output(mini_spec(ref_journal.path()));

  // 7 work items (baseline + 6 cells): kill the first worker on its n-th
  // claim for every n, let a second worker steal and finish, and demand a
  // byte-identical merged table every time.
  for (int n = 1; n <= 7; ++n) {
    TempFile journal("chaos_journal_" + std::to_string(n));
    TempFile leases("chaos_leases_" + std::to_string(n));
    const eval::TableSpec spec = mini_spec(journal.path());

    const pid_t victim =
        fork_worker(spec, worker_config(leases.path(), "w1"),
                    "crash_worker@" + std::to_string(n));
    ASSERT_GE(victim, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status)) << "kill point " << n;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // Survivor: takes the dead worker's cell at once and finishes.
    eval::TableSpec survivor_spec = spec;
    survivor_spec.shard = worker_config(leases.path(), "w2");
    ::testing::internal::CaptureStdout();
    const eval::TableRun survivor = eval::run_table(survivor_spec);
    ::testing::internal::GetCapturedStdout();
    ASSERT_TRUE(survivor.worker_stats.has_value());
    EXPECT_EQ(survivor.worker_stats->stolen, 1) << "kill point " << n;

    const shard::LeaseSummary summary = summary_of(leases.path());
    EXPECT_EQ(summary.steals, 1u) << "kill point " << n;
    EXPECT_EQ(summary.done, 7u) << "kill point " << n;
    EXPECT_EQ(summary.live, 0u) << "kill point " << n;
    EXPECT_EQ(summary.orphaned, 0u) << "kill point " << n;

    EXPECT_EQ(merged_output(spec), reference) << "kill point " << n;
  }
}

TEST_F(ShardTable, QuarantineAfterRepeatedLostLeases) {
  TempFile journal("quarantine_journal");
  TempFile leases("quarantine_leases");
  const eval::TableSpec spec = mini_spec(journal.path());

  // Kill a fresh worker on its first claim three times: the first victim
  // claims the cell, the next two steal it and die too. Three strikes.
  for (int round = 0; round < 3; ++round) {
    const pid_t victim = fork_worker(
        spec, worker_config(leases.path(), "v" + std::to_string(round)),
        "crash_worker@1");
    ASSERT_GE(victim, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status));
  }

  eval::TableSpec survivor_spec = spec;
  survivor_spec.shard = worker_config(leases.path(), "surv");
  survivor_spec.shard->quarantine_strikes = 3;
  ::testing::internal::CaptureStdout();
  const eval::TableRun survivor = eval::run_table(survivor_spec);
  ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(survivor.worker_stats.has_value());
  EXPECT_EQ(survivor.worker_stats->quarantined, 1);
  EXPECT_EQ(survivor.worker_stats->stolen, 1);  // took over the 3rd victim's lease

  // The merged table renders the quarantined cell as degraded.
  const std::string merged = merged_output(spec);
  EXPECT_NE(merged.find("degraded"), std::string::npos);
  EXPECT_NE(merged.find("quarantined after 3 lost leases"),
            std::string::npos);
}

}  // namespace
}  // namespace bd
