// Fault-tolerance tests: CRC32, fault injection, checkpoint v2 durability
// (atomic writes, CRC rejection, truncation at every boundary, legacy v1),
// the crash-resume run journal (torn final line, byte-identical resumed
// tables), and TrainGuard divergence recovery in the training loops.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/trigger.h"
#include "autograd/ops.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/clp.h"
#include "defense/defense.h"
#include "defense/ftsam.h"
#include "defense/nad.h"
#include "eval/table_bench.h"
#include "eval/trainer.h"
#include "models/factory.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "robust/cancel.h"
#include "robust/crc32.h"
#include "robust/fault_injector.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "robust/train_guard.h"
#include "tensor/serialize.h"

namespace bd {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/bd_robust_test_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Every test using the process-global injector must leave it disarmed.
class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override { robust::FaultInjector::instance().reset(); }
  void TearDown() override { robust::FaultInjector::instance().reset(); }
};

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(robust::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(robust::crc32("", 0), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = robust::crc32(data.data(), data.size());
  const std::uint32_t part = robust::crc32(data.data(), 10);
  EXPECT_EQ(robust::crc32(data.data() + 10, data.size() - 10, part), whole);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

using FaultInjectorTest = FaultFixture;

TEST_F(FaultInjectorTest, FiresAtArmedOccurrences) {
  auto& faults = robust::FaultInjector::instance();
  faults.configure("nan@2,nan@4,crash@1");
  const auto nan_loss = robust::FaultKind::kNanLoss;
  EXPECT_FALSE(faults.fire(nan_loss));  // occurrence 1
  EXPECT_TRUE(faults.fire(nan_loss));   // occurrence 2 (armed)
  EXPECT_FALSE(faults.fire(nan_loss));  // occurrence 3
  EXPECT_TRUE(faults.fire(nan_loss));   // occurrence 4 (armed)
  EXPECT_FALSE(faults.armed(nan_loss));
  EXPECT_THROW(faults.fire_crash("here"), robust::SimulatedCrash);
  EXPECT_NO_THROW(faults.fire_io("save"));  // io_fail never armed
}

TEST_F(FaultInjectorTest, ResetDisarms) {
  auto& faults = robust::FaultInjector::instance();
  faults.configure("nan@1");
  faults.reset();
  EXPECT_FALSE(faults.fire(robust::FaultKind::kNanLoss));
}

TEST_F(FaultInjectorTest, RejectsMalformedSpecs) {
  auto& faults = robust::FaultInjector::instance();
  EXPECT_THROW(faults.configure("bogus@1"), std::invalid_argument);
  EXPECT_THROW(faults.configure("nan"), std::invalid_argument);
  EXPECT_THROW(faults.configure("nan@0"), std::invalid_argument);
  EXPECT_THROW(faults.configure("nan@x"), std::invalid_argument);
  EXPECT_NO_THROW(faults.configure("io_fail@3,nan@120"));
}

// Occurrences follow parse_whole, the rule of every numeric knob: a sign, a
// space or a value past int64 is malformed, never clamped or trimmed.
TEST_F(FaultInjectorTest, OccurrenceMustParseWhole) {
  auto& faults = robust::FaultInjector::instance();
  for (const char* spec : {"io_fail@+3", "io_fail@ 3", "io_fail@3 ",
                           "io_fail@99999999999999999999", "io_fail@-3"}) {
    EXPECT_THROW(faults.configure(spec), std::invalid_argument) << spec;
  }
  faults.configure("io_fail@3");
  EXPECT_TRUE(faults.armed(robust::FaultKind::kIoFail));
  EXPECT_NO_THROW(faults.fire_io("one"));
  EXPECT_NO_THROW(faults.fire_io("two"));
  EXPECT_THROW(faults.fire_io("three"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// TrainGuard policy
// ---------------------------------------------------------------------------

TEST(TrainGuard, DetectsNanInfAndExplosion) {
  robust::TrainGuardConfig cfg;
  cfg.explode_factor = 10.0;
  robust::TrainGuard guard(cfg);
  EXPECT_EQ(guard.check_loss(2.0), nullptr);
  EXPECT_STREQ(guard.check_loss(std::nan("")), "non-finite loss");
  EXPECT_STREQ(guard.check_loss(INFINITY), "non-finite loss");
  // 25 < 10 * (1 + 2): not yet an explosion.
  EXPECT_EQ(guard.check_loss(25.0), nullptr);
  EXPECT_STREQ(guard.check_loss(31.0), "loss explosion");
  EXPECT_STREQ(guard.check_grad_norm(INFINITY), "non-finite gradient");
  EXPECT_EQ(guard.check_grad_norm(1.5), nullptr);
}

TEST(TrainGuard, RetryBudgetAndReport) {
  robust::TrainGuardConfig cfg;
  cfg.max_recoveries = 2;
  robust::TrainGuard guard(cfg);
  EXPECT_TRUE(guard.can_recover());
  guard.record_recovery(0, 3, std::nan(""), 0.025, "non-finite loss");
  guard.record_recovery(1, 0, 1e9, 0.0125, "loss explosion");
  EXPECT_FALSE(guard.can_recover());
  guard.record_exhausted();
  const auto& report = guard.report();
  EXPECT_EQ(report.recoveries, 2);
  EXPECT_TRUE(report.gave_up);
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.events[0].reason, "non-finite loss");
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("2 recoveries"), std::string::npos);
  EXPECT_NE(summary.find("exhausted"), std::string::npos);
}

TEST(TrainGuard, DisabledNeverFlags) {
  robust::TrainGuardConfig cfg;
  cfg.enabled = false;
  robust::TrainGuard guard(cfg);
  EXPECT_EQ(guard.check_loss(std::nan("")), nullptr);
  EXPECT_EQ(guard.check_grad_norm(INFINITY), nullptr);
}

// ---------------------------------------------------------------------------
// Checkpoint v2: durability and corruption rejection
// ---------------------------------------------------------------------------

using CheckpointRobust = FaultFixture;

TEST_F(CheckpointRobust, V2RoundTripWithInfo) {
  Rng rng(1);
  nn::Conv2d a(3, 4, 3, 1, 1, /*bias=*/true, rng);
  nn::Conv2d b(3, 4, 3, 1, 1, /*bias=*/true, rng);
  TempFile file("v2_roundtrip");
  nn::save_checkpoint(a, file.path());

  const auto info = nn::inspect_checkpoint(file.path());
  EXPECT_EQ(info.version, 2u);
  EXPECT_TRUE(info.crc_verified);
  EXPECT_EQ(info.entries.size(), a.state_dict().size());
  EXPECT_GT(info.total_elements, 0);

  nn::load_checkpoint(b, file.path());
  const auto sa = a.state_dict();
  const auto sb = b.state_dict();
  for (const auto& [name, tensor] : sa) {
    const auto& other = sb.at(name);
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_EQ(tensor[i], other[i]) << name;
    }
  }
}

TEST_F(CheckpointRobust, SaveLeavesNoTempFile) {
  Rng rng(2);
  nn::Conv2d conv(1, 2, 3, 1, 1, true, rng);
  TempFile file("no_tmp");
  nn::save_checkpoint(conv, file.path());
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

TEST_F(CheckpointRobust, BitFlipIsCaughtByCrc) {
  Rng rng(3);
  nn::Conv2d conv(3, 4, 3, 1, 1, true, rng);
  TempFile file("bitflip");
  nn::save_checkpoint(conv, file.path());

  std::string bytes = slurp(file.path());
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  spit(file.path(), bytes);

  try {
    nn::load_state(file.path());
    FAIL() << "bit-flipped checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(file.path()), std::string::npos);
  }
}

TEST_F(CheckpointRobust, TruncatedAtEveryBoundaryThrows) {
  Rng rng(4);
  nn::Conv2d conv(2, 2, 3, 1, 1, true, rng);  // small: a few hundred bytes
  TempFile file("truncate_all");
  nn::save_checkpoint(conv, file.path());
  const std::string bytes = slurp(file.path());
  ASSERT_GT(bytes.size(), 16u);

  TempFile cut("truncate_all_cut");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(cut.path(), bytes.substr(0, len));
    EXPECT_THROW(nn::load_state(cut.path()), std::runtime_error)
        << "prefix of " << len << "/" << bytes.size() << " bytes loaded";
  }
  // The full file still loads.
  spit(cut.path(), bytes);
  EXPECT_NO_THROW(nn::load_state(cut.path()));
}

TEST_F(CheckpointRobust, InjectedOpenFailureLeavesTargetUntouched) {
  Rng rng(5);
  nn::Conv2d conv(1, 2, 3, 1, 1, true, rng);
  TempFile file("io_open");
  nn::save_checkpoint(conv, file.path());
  const std::string before = slurp(file.path());

  auto& faults = robust::FaultInjector::instance();
  faults.configure("io_fail@1");  // first fire site: before writing the tmp
  EXPECT_THROW(nn::save_checkpoint(conv, file.path()), std::runtime_error);
  EXPECT_EQ(slurp(file.path()), before);
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

TEST_F(CheckpointRobust, InjectedCommitFailureLeavesTargetUntouched) {
  Rng rng(6);
  nn::Conv2d old_weights(1, 2, 3, 1, 1, true, rng);
  nn::Conv2d new_weights(1, 2, 3, 1, 1, true, rng);
  TempFile file("io_commit");
  nn::save_checkpoint(old_weights, file.path());
  const std::string before = slurp(file.path());

  auto& faults = robust::FaultInjector::instance();
  faults.configure("io_fail@2");  // second fire site: after the tmp write
  EXPECT_THROW(nn::save_checkpoint(new_weights, file.path()),
               std::runtime_error);
  // The fully-written tmp was discarded; the old checkpoint is intact.
  EXPECT_EQ(slurp(file.path()), before);
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
  EXPECT_NO_THROW(nn::load_state(file.path()));
}

// ---------------------------------------------------------------------------
// Legacy v1 checkpoints
// ---------------------------------------------------------------------------

void write_v1_string(std::ostream& out, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(s.size());
  out.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Writes a v1 (magic + count + entries, no CRC) checkpoint of `module`.
void write_v1_checkpoint(const nn::Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::uint32_t magic = 0x42444350;  // v1 "BDCP"
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  const auto state = module.state_dict();
  const auto count = static_cast<std::uint32_t>(state.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& [name, tensor] : state) {
    write_v1_string(out, name);
    write_tensor(out, tensor);
  }
}

TEST_F(CheckpointRobust, LegacyV1StillLoads) {
  Rng rng(7);
  nn::Conv2d a(3, 4, 3, 1, 1, true, rng);
  nn::Conv2d b(3, 4, 3, 1, 1, true, rng);
  TempFile file("legacy_v1");
  write_v1_checkpoint(a, file.path());

  const auto info = nn::inspect_checkpoint(file.path());
  EXPECT_EQ(info.version, 1u);
  EXPECT_FALSE(info.crc_verified);

  nn::load_checkpoint(b, file.path());
  const auto sa = a.state_dict();
  const auto sb = b.state_dict();
  for (const auto& [name, tensor] : sa) {
    const auto& other = sb.at(name);
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_EQ(tensor[i], other[i]) << name;
    }
  }
}

TEST_F(CheckpointRobust, EntryErrorNamesTheEntry) {
  TempFile file("v1_bad_entry");
  {
    std::ofstream out(file.path(), std::ios::binary);
    const std::uint32_t magic = 0x42444350;
    const std::uint32_t count = 1;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    write_v1_string(out, "conv.weight");
    out << "garbage instead of a tensor";
  }
  try {
    nn::load_state(file.path());
    FAIL() << "corrupt entry loaded";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv.weight"), std::string::npos) << msg;
    EXPECT_NE(msg.find("entry 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
    EXPECT_NE(msg.find(file.path()), std::string::npos) << msg;
  }
}

TEST_F(CheckpointRobust, ImplausibleEntryCountRejected) {
  TempFile file("v1_bad_count");
  {
    std::ofstream out(file.path(), std::ios::binary);
    const std::uint32_t magic = 0x42444350;
    const std::uint32_t count = 0xFFFFFFFFu;  // would loop ~4e9 times
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  try {
    nn::load_state(file.path());
    FAIL() << "implausible count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("entry count"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Run journal
// ---------------------------------------------------------------------------

TEST(Journal, RoundTripWithEscaping) {
  TempFile file("journal_roundtrip");
  {
    robust::RunJournal journal(file.path());
    journal.record("k1", {{"acc", "97.5"}, {"note", "a\"b\\c\nd"}});
    journal.record("k2", {{"asr", "1.25"}});
  }
  robust::RunJournal reopened(file.path());
  EXPECT_EQ(reopened.size(), 2u);
  ASSERT_TRUE(reopened.has("k1"));
  EXPECT_EQ(reopened.find("k1")->at("note"), "a\"b\\c\nd");
  EXPECT_EQ(reopened.find("k2")->at("asr"), "1.25");
  EXPECT_EQ(reopened.find("missing"), nullptr);
}

TEST(Journal, TornFinalLineIsDroppedAndAppendable) {
  TempFile file("journal_torn");
  {
    robust::RunJournal journal(file.path());
    journal.record("k1", {{"acc", "97.5"}});
    journal.record("k2", {{"acc", "96.0"}});
  }
  {
    // Simulate a kill mid-append: a partial line with no newline.
    std::ofstream out(file.path(), std::ios::app | std::ios::binary);
    out << "{\"key\":\"k3\",\"fie";
  }
  robust::RunJournal reopened(file.path());
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_FALSE(reopened.has("k3"));
  reopened.record("k3", {{"acc", "95.0"}});

  robust::RunJournal again(file.path());
  EXPECT_EQ(again.size(), 3u);
  EXPECT_TRUE(again.has("k3"));
}

TEST(Journal, MalformedInteriorLineThrows) {
  TempFile file("journal_corrupt");
  {
    robust::RunJournal journal(file.path());
    journal.record("k1", {{"acc", "97.5"}});
  }
  const std::string intact = slurp(file.path());
  spit(file.path(), "not json at all\n" + intact);
  EXPECT_THROW(robust::RunJournal{file.path()}, std::runtime_error);
}

TEST(Journal, DisabledJournalIsNoop) {
  robust::RunJournal journal;
  EXPECT_FALSE(journal.enabled());
  journal.record("k", {{"a", "b"}});  // must not touch the filesystem
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_FALSE(journal.has("k"));
}

TEST(Journal, ExactDoubleRoundTripsBitwise) {
  for (const double v : {97.123456789012345, 1.0 / 3.0, 2.5e-17, 0.0}) {
    const std::string s = robust::exact_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

// ---------------------------------------------------------------------------
// Journal line codec compatibility
// ---------------------------------------------------------------------------

struct PinnedLine {
  std::string line;  // exactly as earlier releases wrote it, newline included
  std::string key;
  robust::JournalFields fields;
};

/// A table cell, a serve job record, a lease-ledger record, an empty
/// entry and raw UTF-8 bytes, as the journal has always written them.
std::vector<PinnedLine> pinned_lines() {
  return {
      {R"({"key":"9f86d081884c7d65","fields":{"acc":"97.123456789012351",)"
       R"("asr":"1.25","attempts":"2","failure":"deadline: \"x\"\\p\n\tq\r",)"
       R"("ra":"0.5"}})"
       "\n",
       "9f86d081884c7d65",
       {{"acc", "97.123456789012351"},
        {"asr", "1.25"},
        {"attempts", "2"},
        {"failure", "deadline: \"x\"\\p\n\tq\r"},
        {"ra", "0.5"}}},
      {R"({"key":"job|j000001","fields":{"acc":"91.5","arch":"vgg",)"
       R"("attack":"badnet","attempts":"1","cache":"hit",)"
       R"("cache_key":"0011223344556677","dataset":"cifar",)"
       R"("defense":"gradprune","id":"j000001","out":"/data/out dir/m.bin",)"
       R"("pruned":"3","seed":"1234","spc":"10","state":"done",)"
       R"("tenant":"team-1"}})"
       "\n",
       "job|j000001",
       {{"acc", "91.5"},
        {"arch", "vgg"},
        {"attack", "badnet"},
        {"attempts", "1"},
        {"cache", "hit"},
        {"cache_key", "0011223344556677"},
        {"dataset", "cifar"},
        {"defense", "gradprune"},
        {"id", "j000001"},
        {"out", "/data/out dir/m.bin"},
        {"pruned", "3"},
        {"seed", "1234"},
        {"spc", "10"},
        {"state", "done"},
        {"tenant", "team-1"}}},
      {R"({"key":"c1","fields":{"note":"oom: \"bad_alloc\"\n","op":"abandon",)"
       R"("ts":"9","worker":"w0"}})"
       "\n",
       "c1",
       {{"note", "oom: \"bad_alloc\"\n"},
        {"op", "abandon"},
        {"ts", "9"},
        {"worker", "w0"}}},
      {"{\"key\":\"k\",\"fields\":{}}\n", "k", {}},
      {"{\"key\":\"caf\xc3\xa9\",\"fields\":{\"\xe2\x82\xac\":\"\x7f\xff\"}}\n",
       "caf\xc3\xa9",
       {{"\xe2\x82\xac", "\x7f\xff"}}},
  };
}

std::string without_newline(const std::string& line) {
  return line.substr(0, line.size() - 1);
}

TEST(JournalCodec, PinnedLinesDecodeAndReencodeByteForByte) {
  for (const PinnedLine& p : pinned_lines()) {
    std::string key;
    robust::JournalFields fields;
    ASSERT_TRUE(robust::parse_journal_line(without_newline(p.line), key,
                                           fields))
        << p.line;
    EXPECT_EQ(key, p.key);
    EXPECT_EQ(fields, p.fields);
    EXPECT_EQ(robust::encode_journal_line(p.key, p.fields), p.line);
  }
  // Earlier releases copied control bytes other than \n, \r and \t raw;
  // such a line is not JSON and is rejected like any other damage. The
  // writer now escapes them as \u00XX.
  std::string key;
  robust::JournalFields fields;
  EXPECT_FALSE(robust::parse_journal_line(
      "{\"key\":\"k\",\"fields\":{\"error\":\"a\x01z\"}}", key, fields));
  EXPECT_EQ(robust::encode_journal_line("k", {{"error", "a\x01z"}}),
            "{\"key\":\"k\",\"fields\":{\"error\":\"a\\u0001z\"}}\n");
}

TEST(JournalCodec, EveryByteRoundTrips) {
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    const std::string s = std::string("<") + static_cast<char>(b) + ">";
    all_bytes += static_cast<char>(b);
    for (const std::string& text : {s, all_bytes}) {
      const robust::JournalFields in{{text, text}, {"v", text}};
      const std::string line = robust::encode_journal_line(text, in);
      // Still one line: the only raw control byte is the final newline.
      ASSERT_EQ(line.back(), '\n');
      for (std::size_t i = 0; i + 1 < line.size(); ++i) {
        ASSERT_GE(static_cast<unsigned char>(line[i]), 0x20) << b;
      }
      std::string key;
      robust::JournalFields out;
      ASSERT_TRUE(robust::parse_journal_line(without_newline(line), key, out))
          << b;
      EXPECT_EQ(key, text) << b;
      EXPECT_EQ(out, in) << b;
    }
  }
}

TEST(JournalCodec, EveryTruncationIsRejected) {
  for (const PinnedLine& p : pinned_lines()) {
    const std::string line = without_newline(p.line);
    for (std::size_t n = 0; n < line.size(); ++n) {
      std::string key;
      robust::JournalFields fields;
      EXPECT_FALSE(robust::parse_journal_line(line.substr(0, n), key, fields))
          << line.substr(0, n);
    }
  }
}

/// Expects decoding `fields` with `fields[name] = text` to throw a
/// std::runtime_error that names the field.
template <typename Decode>
void expect_damaged_number_fails(const Decode& decode,
                                 robust::JournalFields fields,
                                 const std::string& name,
                                 const std::string& text) {
  fields[name] = text;
  try {
    decode(fields);
    ADD_FAILURE() << name << "='" << text << "' decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + name + "'"), std::string::npos)
        << e.what();
  }
}

TEST(JournalCodec, TableEntryNumbersParseWholeOrFailNamingTheField) {
  // The pinned table line decodes exactly, numbers and lists included.
  const robust::JournalFields pinned = pinned_lines()[0].fields;
  const eval::SettingResult s = eval::decode_table_entry(pinned);
  ASSERT_EQ(s.acc.size(), 1u);
  EXPECT_EQ(s.acc[0], 97.123456789012351);
  EXPECT_EQ(s.asr, std::vector<double>{1.25});
  EXPECT_EQ(s.ra, std::vector<double>{0.5});
  EXPECT_EQ(s.attempts, 2);
  EXPECT_EQ(s.spc, 0);  // absent: a baseline entry
  EXPECT_TRUE(s.seconds.empty());

  robust::JournalFields setting = pinned;
  setting["spc"] = "10";
  setting["pruned"] = "3,0,12";
  setting["seconds"] = "0.25,1e-05";
  const eval::SettingResult t = eval::decode_table_entry(setting);
  EXPECT_EQ(t.spc, 10);
  EXPECT_EQ(t.pruned, (std::vector<std::int64_t>{3, 0, 12}));
  EXPECT_EQ(t.seconds, (std::vector<double>{0.25, 1e-05}));

  const auto decode = [](const robust::JournalFields& f) {
    return eval::decode_table_entry(f);
  };
  expect_damaged_number_fails(decode, setting, "spc", "2x");
  expect_damaged_number_fails(decode, setting, "attempts", " 2");
  expect_damaged_number_fails(decode, setting, "acc", "1,x");
  expect_damaged_number_fails(decode, setting, "asr", "1,,2");
  expect_damaged_number_fails(decode, setting, "ra", "0.5,");
  expect_damaged_number_fails(decode, setting, "seconds", "0x1p3");
  expect_damaged_number_fails(decode, setting, "pruned", "3,1.5");
  expect_damaged_number_fails(decode, setting, "recoveries", "+1");
}

// ---------------------------------------------------------------------------
// TrainGuard wired into the training loops
// ---------------------------------------------------------------------------

data::TrainTest tiny_task(Rng& rng, std::int64_t per_class = 30) {
  data::SynthConfig cfg;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = per_class;
  cfg.test_per_class = 4;
  return data::make_synth_cifar(cfg, rng);
}

std::unique_ptr<models::Classifier> tiny_model(Rng& rng) {
  models::ModelSpec spec;
  spec.arch = "vgg";
  spec.num_classes = 10;
  spec.base_width = 8;
  return models::make_model(spec, rng);
}

void expect_finite_weights(models::Classifier& model) {
  for (const auto& [name, tensor] : model.state_dict()) {
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(tensor[i])) << name;
    }
  }
}

/// A micro backdoored-model setting for the defense-level guard tests.
struct DefenseSetting {
  Rng rng{13};
  models::ModelSpec spec{"vgg", 10, 3, 8};
  std::unique_ptr<models::Classifier> model;
  defense::DefenseContext ctx;

  DefenseSetting()
      : model(models::make_model(spec, rng)),
        ctx(make_context(spec, rng)) {}

  static defense::DefenseContext make_context(const models::ModelSpec& spec,
                                              Rng& rng) {
    data::SynthConfig dcfg;
    dcfg.height = dcfg.width = 10;
    dcfg.train_per_class = 6;
    dcfg.test_per_class = 2;
    const auto data = data::make_synth_cifar(dcfg, rng);
    attack::BadNetsTrigger trigger;
    return defense::make_defense_context(data.train, trigger, spec, rng);
  }
};

using TrainRecovery = FaultFixture;

TEST_F(TrainRecovery, InjectedNanRollsBackAndStillConverges) {
  Rng rng(6);
  const auto data = tiny_task(rng);
  auto model = tiny_model(rng);
  robust::FaultInjector::instance().configure("nan@5");

  eval::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.lr = 0.05f;
  const eval::TrainResult result =
      eval::train_classifier(*model, data.train, cfg, rng);

  EXPECT_EQ(result.guard.recoveries, 1);
  EXPECT_FALSE(result.guard.gave_up);
  ASSERT_EQ(result.guard.events.size(), 1u);
  EXPECT_EQ(result.guard.events[0].reason, "non-finite loss");
  // The learning rate was backed off once from the configured 0.05.
  EXPECT_NEAR(result.guard.events[0].lr_after, 0.025, 1e-6);
  // Despite the mid-run divergence the run completes and converges.
  EXPECT_TRUE(std::isfinite(result.final_loss));
  EXPECT_LT(result.final_loss, 1.5);
}

TEST_F(TrainRecovery, ExhaustedBudgetStopsAtLastGoodSnapshot) {
  Rng rng(7);
  const auto data = tiny_task(rng, 8);
  auto model = tiny_model(rng);
  auto& faults = robust::FaultInjector::instance();
  faults.configure("nan@1,nan@2,nan@3,nan@4");

  eval::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.guard.max_recoveries = 3;
  const eval::TrainResult result =
      eval::train_classifier(*model, data.train, cfg, rng);

  EXPECT_EQ(result.guard.recoveries, 3);
  EXPECT_TRUE(result.guard.gave_up);
  // The model was restored to its last good snapshot: all weights finite.
  expect_finite_weights(*model);
}

TEST_F(TrainRecovery, EarlyStoppingRecovers) {
  Rng rng(8);
  const auto data = tiny_task(rng, 12);
  auto model = tiny_model(rng);
  robust::FaultInjector::instance().configure("nan@3");

  eval::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.patience = 2;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.0f;
  const eval::TrainResult result =
      eval::train_classifier(*model, data.train, cfg, rng, &data.test);

  EXPECT_EQ(result.guard.recoveries, 1);
  EXPECT_GT(result.epochs_run, 0);
  EXPECT_TRUE(std::isfinite(result.best_val_loss));
}

// The backoff reaches SAM's base SGD: the event reports half the rate.
TEST_F(TrainRecovery, SamStepRollsBackAndBacksOff) {
  Rng rng(12);
  const auto data = tiny_task(rng);
  auto model = tiny_model(rng);
  robust::FaultInjector::instance().configure("nan@4");

  eval::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.lr = 0.02f;
  cfg.sam_rho = 1.0f;
  const eval::TrainResult result =
      eval::train_classifier(*model, data.train, cfg, rng);

  EXPECT_EQ(result.guard.recoveries, 1);
  ASSERT_EQ(result.guard.events.size(), 1u);
  EXPECT_EQ(result.guard.events[0].reason, "non-finite loss");
  EXPECT_NEAR(result.guard.events[0].lr_after, 0.01, 1e-6);
  EXPECT_EQ(result.epochs_run, 2);
  expect_finite_weights(*model);
}

// A non-finite gradient at SAM's perturbed point undoes the perturbation
// and rolls back like any other bad step.
TEST_F(TrainRecovery, SamPerturbedPointGradientRollsBack) {
  Rng rng(12);
  const auto data = tiny_task(rng, 8);
  auto model = tiny_model(rng);

  int calls = 0;
  eval::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.sam_rho = 1.0f;
  cfg.batch_loss = [&calls](models::Classifier& m, const data::Batch& batch) {
    const ag::Var loss =
        ag::cross_entropy(m.forward(ag::Var(batch.images)), batch.labels);
    // Call 2 is the first batch's second, perturbed-point pass.
    return ++calls == 2 ? ag::mul_scalar(loss, std::nanf("")) : loss;
  };
  const eval::TrainResult result =
      eval::train_classifier(*model, data.train, cfg, rng);

  EXPECT_EQ(result.guard.recoveries, 1);
  ASSERT_EQ(result.guard.events.size(), 1u);
  EXPECT_EQ(result.guard.events[0].reason, "non-finite gradient");
  EXPECT_EQ(result.epochs_run, 2);
  expect_finite_weights(*model);
}

TEST_F(TrainRecovery, FtSamFinetuneRollsBack) {
  DefenseSetting setting;
  robust::FaultInjector::instance().configure("nan@2");
  defense::FtSamConfig cfg;
  cfg.max_epochs = 2;
  const auto result = defense::FtSamDefense(cfg).apply(*setting.model,
                                                       setting.ctx);
  EXPECT_EQ(result.recoveries, 1);
  expect_finite_weights(*setting.model);
}

TEST_F(TrainRecovery, NadDistillationRollsBack) {
  DefenseSetting setting;
  defense::NadConfig cfg;
  cfg.teacher_epochs = 1;
  cfg.distill_epochs = 2;
  // Arm the fault one batch into distillation, past the teacher's batches.
  const auto teacher_batches =
      (static_cast<std::int64_t>(setting.ctx.clean_train.size()) +
       cfg.batch_size - 1) /
      cfg.batch_size * cfg.teacher_epochs;
  robust::FaultInjector::instance().configure(
      "nan@" + std::to_string(teacher_batches + 2));
  const auto result = defense::NadDefense(cfg).apply(*setting.model,
                                                     setting.ctx);
  EXPECT_EQ(result.recoveries, 1);
  EXPECT_EQ(result.finetune_epochs, 2);
  expect_finite_weights(*setting.model);
}

TEST_F(TrainRecovery, GradPruneSkipsNonFiniteRound) {
  Rng rng(9);
  data::SynthConfig dcfg;
  dcfg.height = dcfg.width = 10;
  dcfg.train_per_class = 6;
  dcfg.test_per_class = 2;
  const auto data = data::make_synth_cifar(dcfg, rng);
  models::ModelSpec spec{"vgg", 10, 3, 8};
  auto model = models::make_model(spec, rng);
  attack::BadNetsTrigger trigger;
  const auto ctx = defense::make_defense_context(data.train, trigger, spec, rng);

  robust::FaultInjector::instance().configure("nan_grad@1");
  core::GradPruneConfig cfg;
  cfg.max_prune_rounds = 3;
  cfg.finetune = false;
  core::GradPruneDefense defense(cfg);
  const auto result = defense.apply(*model, ctx);

  // Round 1 was skipped on non-finite scores and counted as a recovery;
  // later rounds proceeded on real gradients.
  EXPECT_GE(result.recoveries, 1);
  expect_finite_weights(*model);
}

// ---------------------------------------------------------------------------
// Crash-resumable bench runs
// ---------------------------------------------------------------------------

eval::ExperimentScale micro_scale() {
  eval::ExperimentScale s;
  s.data.height = s.data.width = 8;
  s.data.train_per_class = 8;
  s.data.test_per_class = 2;
  s.attack_train.epochs = 1;
  s.base_width = 8;
  s.spc_settings = {2};
  s.trials = 1;
  s.defense_max_epochs = 2;
  s.prune_max_rounds = 3;
  s.anp_iterations = 2;
  s.nad_teacher_epochs = 1;
  s.nad_distill_epochs = 1;
  return s;
}

/// Drops the wall-clock footer ("total: 12.3s"), the only
/// run-dependent part of run_table's stdout.
std::string strip_timing(const std::string& output) {
  std::string out;
  std::size_t pos = 0;
  while (pos < output.size()) {
    std::size_t end = output.find('\n', pos);
    if (end == std::string::npos) end = output.size();
    const std::string line = output.substr(pos, end - pos);
    if (line.rfind("total:", 0) != 0) {
      out += line;
      out += '\n';
    }
    pos = end + 1;
  }
  return out;
}

using TableResume = FaultFixture;

/// The line of `output` that contains `needle` ("" when none does).
std::string line_with(const std::string& output, const std::string& needle) {
  const std::size_t at = output.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = output.rfind('\n', at) + 1;  // npos + 1 == 0
  return output.substr(begin, output.find('\n', at) - begin);
}

TEST_F(TableResume, CrashThenResumeIsByteIdentical) {
  // Next to two named defenses, one variant entry brings its own factory:
  // CLP at a lower outlier threshold than the library default.
  int variant_builds = 0;
  eval::TableSpec spec;
  spec.title = "resume-test";
  spec.dataset = "cifar";
  spec.arch = "vgg";
  spec.attacks = {"badnet"};
  spec.defenses = {"ft", "clp",
                   {"clp-u2", [&](const eval::ExperimentScale&) {
                      ++variant_builds;
                      defense::ClpConfig config;
                      config.u = 2.0;
                      return std::make_unique<defense::ClpDefense>(config);
                    }}};
  spec.scatter = true;
  spec.scale = micro_scale();
  spec.resume = false;

  // Reference: uninterrupted run.
  TempFile ref_journal("journal_ref");
  spec.journal_path = ref_journal.path();
  ::testing::internal::CaptureStdout();
  const eval::TableRun reference = eval::run_table(spec);
  const std::string reference_out = strip_timing(
      ::testing::internal::GetCapturedStdout());
  EXPECT_EQ(reference.resumed_cells, 0u);
  ASSERT_EQ(reference.settings.size(), 3u);
  EXPECT_NE(reference_out.find("| Pruned"), std::string::npos);

  // The factory is what ran: built once, and CLP is data-free, so on the
  // same weights a lower threshold prunes a superset of the default's.
  EXPECT_EQ(variant_builds, 1);
  EXPECT_EQ(reference.settings[2].defense, "clp-u2");
  ASSERT_EQ(reference.settings[2].pruned.size(), 1u);
  EXPECT_GE(reference.settings[2].pruned[0], reference.settings[1].pruned[0]);
  EXPECT_NE(line_with(reference_out, "| clp-u2"), "");

  // The label keys the variant's journal entry and is its defense field.
  int variant_entries = 0;
  const robust::RunJournal written(ref_journal.path());
  for (const auto& [key, fields] : written.entries()) {
    if (eval::decode_table_entry(fields).defense == "clp-u2") {
      ++variant_entries;
      EXPECT_EQ(fields.at("defense"), "clp-u2");
    }
  }
  EXPECT_EQ(variant_entries, 1);

  // Crashed run: killed between cell 1 and cell 2.
  TempFile crash_journal("journal_crash");
  spec.journal_path = crash_journal.path();
  robust::FaultInjector::instance().configure("crash@1");
  ::testing::internal::CaptureStdout();
  bool crashed = false;
  try {
    eval::run_table(spec);
  } catch (const robust::SimulatedCrash&) {
    crashed = true;
  }
  ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(crashed);
  robust::FaultInjector::instance().reset();

  // Resume: completed cells are skipped, output is byte-identical.
  spec.resume = true;
  ::testing::internal::CaptureStdout();
  const eval::TableRun resumed = eval::run_table(spec);
  const std::string resumed_out = strip_timing(
      ::testing::internal::GetCapturedStdout());

  EXPECT_EQ(resumed.resumed_cells, 1u);
  EXPECT_EQ(variant_builds, 2);  // the crash came before the variant's cell
  EXPECT_EQ(resumed_out, reference_out);
  ASSERT_EQ(resumed.settings.size(), reference.settings.size());
  for (std::size_t i = 0; i < reference.settings.size(); ++i) {
    EXPECT_EQ(resumed.settings[i].acc, reference.settings[i].acc) << i;
    EXPECT_EQ(resumed.settings[i].asr, reference.settings[i].asr) << i;
    EXPECT_EQ(resumed.settings[i].ra, reference.settings[i].ra) << i;
    EXPECT_EQ(resumed.settings[i].pruned, reference.settings[i].pruned) << i;
  }
  ASSERT_EQ(resumed.baselines.size(), 1u);
  EXPECT_EQ(resumed.baselines[0].second.acc, reference.baselines[0].second.acc);

  // No defenses: the journaled baseline row alone, with no pruned count.
  spec.defenses.clear();
  spec.journal_path = ref_journal.path();
  ::testing::internal::CaptureStdout();
  const eval::TableRun baseline_only = eval::run_table(spec);
  const std::string baseline_out = strip_timing(
      ::testing::internal::GetCapturedStdout());
  EXPECT_TRUE(baseline_only.settings.empty());
  ASSERT_EQ(baseline_only.baselines.size(), 1u);
  EXPECT_EQ(baseline_only.baselines[0].second.asr,
            reference.baselines[0].second.asr);
  const std::string baseline_row = line_with(reference_out, "| Baseline");
  ASSERT_NE(baseline_row, "");
  EXPECT_EQ(line_with(baseline_out, "| Baseline"), baseline_row);
  EXPECT_EQ(baseline_out.find("CLP"), std::string::npos);
  EXPECT_EQ(baseline_out.find("clp-u2"), std::string::npos);
  EXPECT_EQ(variant_builds, 2);
}

TEST_F(TableResume, FullyJournaledRunSkipsAttackTraining) {
  eval::TableSpec spec;
  spec.title = "resume-full";
  spec.dataset = "cifar";
  spec.arch = "vgg";
  spec.attacks = {"badnet"};
  spec.defenses = {"clp"};
  spec.scale = micro_scale();

  TempFile journal("journal_full");
  spec.journal_path = journal.path();
  spec.resume = false;
  ::testing::internal::CaptureStdout();
  const eval::TableRun first = eval::run_table(spec);
  const std::string first_out = strip_timing(
      ::testing::internal::GetCapturedStdout());

  spec.resume = true;
  ::testing::internal::CaptureStdout();
  const eval::TableRun second = eval::run_table(spec);
  const std::string second_out = strip_timing(
      ::testing::internal::GetCapturedStdout());

  // Everything (baseline included) came from the journal: no retraining,
  // identical tables.
  EXPECT_EQ(second.resumed_cells, 1u);
  EXPECT_EQ(second_out, first_out);
  EXPECT_EQ(second.baselines[0].second.asr, first.baselines[0].second.asr);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation primitives
// ---------------------------------------------------------------------------

TEST(CancelToken, NullTokenNeverCancelsAndHeartbeatIsNoop) {
  robust::CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
  token.heartbeat();  // must not crash
  // Polling outside any scope is a cheap no-op too.
  robust::poll_cancellation("test.no_scope");
}

TEST(CancelSource, FirstCancelReasonWins) {
  robust::CancelSource source;
  const robust::CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());

  source.cancel("first");
  source.cancel("second");
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "first");
}

TEST(CancelSource, HeartbeatAgeTracksPolls) {
  robust::CancelSource source;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GT(source.heartbeat_age_seconds(), 0.02);
  source.token().heartbeat();
  EXPECT_LT(source.heartbeat_age_seconds(), 0.02);
}

TEST(CancelScope, InstallsAndRestoresThreadToken) {
  EXPECT_FALSE(robust::current_cancel_token().valid());
  robust::CancelSource outer;
  {
    robust::CancelScope outer_scope(outer.token());
    EXPECT_TRUE(robust::current_cancel_token().valid());
    robust::CancelSource inner;
    inner.cancel("inner cancelled");
    {
      robust::CancelScope inner_scope(inner.token());
      EXPECT_THROW(robust::poll_cancellation("test.inner"), robust::Cancelled);
    }
    // Back to the outer (uncancelled) token: polling passes again.
    robust::poll_cancellation("test.outer");
  }
  EXPECT_FALSE(robust::current_cancel_token().valid());
}

TEST(Cancelled, MessageCarriesReasonAndBoundary) {
  robust::CancelSource source;
  source.cancel("watchdog: deadline of 1s exceeded");
  robust::CancelScope scope(source.token());
  try {
    robust::poll_cancellation("train.batch");
    FAIL() << "poll_cancellation must throw under a cancelled scope";
  } catch (const robust::Cancelled& e) {
    EXPECT_EQ(e.reason(), "watchdog: deadline of 1s exceeded");
    EXPECT_NE(std::string(e.what()).find("train.batch"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Supervisor: retry, watchdog, quarantine
// ---------------------------------------------------------------------------

/// Saves/restores the process-global supervisor config (and clears its
/// strikes + stats) around every test; also keeps the fault injector clean.
class SupervisorTest : public FaultFixture {
 protected:
  void SetUp() override {
    FaultFixture::SetUp();
    saved_config_ = robust::Supervisor::instance().config();
    robust::Supervisor::instance().configure(fast_config());
  }
  void TearDown() override {
    robust::Supervisor::instance().configure(saved_config_);
    FaultFixture::TearDown();
  }

  /// Retry policy with negligible backoff so tests stay fast.
  static robust::SupervisorConfig fast_config() {
    robust::SupervisorConfig config;
    config.backoff_initial_seconds = 0.001;
    config.backoff_factor = 1.0;
    return config;
  }

  robust::SupervisorConfig saved_config_;
};

TEST_F(SupervisorTest, SuccessOnFirstAttempt) {
  robust::Supervisor sup(fast_config());
  int calls = 0;
  const robust::RunReport report = sup.run("key", [&] { ++calls; });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.retries(), 0);
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sup.stats().runs, 1);
  EXPECT_EQ(sup.stats().retries, 0);
}

TEST_F(SupervisorTest, RetriesWithBackoffThenSucceeds) {
  robust::SupervisorConfig config = fast_config();
  config.max_retries = 2;
  robust::Supervisor sup(config);
  int calls = 0;
  const robust::RunReport report = sup.run("key", [&] {
    if (++calls < 3) throw std::runtime_error("transient failure");
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.retries(), 2);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sup.stats().retries, 2);
  // Success wipes the key's strikes.
  EXPECT_EQ(sup.strikes("key"), 0);
}

TEST_F(SupervisorTest, ExhaustedRetriesReportFailure) {
  robust::SupervisorConfig config = fast_config();
  config.max_retries = 1;
  robust::Supervisor sup(config);
  const robust::RunReport report =
      sup.run("key", [] { throw std::runtime_error("permanent failure"); });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status, robust::RunStatus::kFailed);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_NE(report.failure.find("permanent failure"), std::string::npos);
  EXPECT_EQ(sup.stats().failures, 1);
  EXPECT_EQ(sup.strikes("key"), 2);
}

TEST_F(SupervisorTest, QuarantineAfterStrikesThenRefusesImmediately) {
  robust::SupervisorConfig config = fast_config();
  config.max_retries = 0;
  config.quarantine_strikes = 2;
  robust::Supervisor sup(config);
  int calls = 0;
  const auto failing = [&] {
    ++calls;
    throw std::runtime_error("boom");
  };

  EXPECT_EQ(sup.run("bad", failing).status, robust::RunStatus::kFailed);
  EXPECT_FALSE(sup.quarantined("bad"));
  // Second strike crosses the threshold.
  EXPECT_EQ(sup.run("bad", failing).status, robust::RunStatus::kQuarantined);
  EXPECT_TRUE(sup.quarantined("bad"));
  EXPECT_EQ(sup.stats().quarantines, 1);

  // Refused without executing: attempts == 0, reason names the quarantine.
  const robust::RunReport refused = sup.run("bad", failing);
  EXPECT_EQ(refused.status, robust::RunStatus::kQuarantined);
  EXPECT_EQ(refused.attempts, 0);
  EXPECT_NE(refused.failure.find("quarantined"), std::string::npos);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(sup.stats().refused, 1);

  // Other keys are unaffected.
  EXPECT_TRUE(sup.run("good", [] {}).ok());
}

TEST_F(SupervisorTest, InvalidArgumentFailsAfterOneAttempt) {
  robust::SupervisorConfig config = fast_config();
  config.max_retries = 5;
  config.quarantine_strikes = 1;
  robust::Supervisor sup(config);
  int calls = 0;
  const robust::RunReport report = sup.run("key", [&] {
    ++calls;
    throw std::invalid_argument("make_defense: unknown defense 'ours'");
  });
  // A usage error is permanent: one attempt, no retry, no strike.
  EXPECT_EQ(report.status, robust::RunStatus::kFailed);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_NE(report.failure.find("unknown defense 'ours'"), std::string::npos);
  EXPECT_EQ(sup.stats().retries, 0);
  EXPECT_EQ(sup.stats().failures, 1);
  EXPECT_EQ(sup.strikes("key"), 0);
  EXPECT_FALSE(sup.quarantined("key"));
}

TEST_F(SupervisorTest, SimulatedCrashPropagatesWithoutRetry) {
  robust::SupervisorConfig config = fast_config();
  config.max_retries = 5;
  robust::Supervisor sup(config);
  int calls = 0;
  EXPECT_THROW(sup.run("key",
                       [&] {
                         ++calls;
                         throw robust::SimulatedCrash("kill");
                       }),
               robust::SimulatedCrash);
  EXPECT_EQ(calls, 1);  // a crash models a kill: no in-process retry
}

TEST_F(SupervisorTest, HangIsDetectedWithinStallBudget) {
  robust::SupervisorConfig config = fast_config();
  config.deadline_seconds = 20.0;  // generous total budget...
  config.stall_seconds = 0.2;      // ...but a tight heartbeat budget
  config.max_retries = 0;
  robust::Supervisor sup(config);
  robust::FaultInjector::instance().configure("hang@1");

  const auto start = std::chrono::steady_clock::now();
  const robust::RunReport report = sup.run("hang", [] {
    for (int i = 0; i < 1000; ++i) {
      robust::poll_cancellation("test.step");
    }
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.timed_out);
  EXPECT_NE(report.failure.find("stalled"), std::string::npos);
  EXPECT_EQ(sup.stats().timeouts, 1);
  // Detection must come from the 0.2s stall budget, not the 20s deadline
  // (5s leaves slack for a loaded CI machine).
  EXPECT_LT(elapsed, 5.0);
}

TEST_F(SupervisorTest, DeadlineCancelsOverBudgetAttempt) {
  robust::SupervisorConfig config = fast_config();
  config.deadline_seconds = 0.2;
  config.stall_seconds = 20.0;  // heartbeats stay fresh; total budget trips
  config.max_retries = 0;
  robust::Supervisor sup(config);

  const robust::RunReport report = sup.run("slow", [] {
    for (int i = 0; i < 5000; ++i) {  // bounded: ~10s worst case
      robust::poll_cancellation("test.step");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.timed_out);
  EXPECT_NE(report.failure.find("deadline"), std::string::npos);
  // The reason is formatted from the configured budget, never measured
  // time, so degraded cells replay byte-identically on resume.
  EXPECT_NE(report.failure.find("0.2s"), std::string::npos);
}

TEST_F(SupervisorTest, CancellationAtBatchBoundaryLeavesWeightsUntouched) {
  Rng rng(11);
  const auto data = tiny_task(rng, 8);
  auto model = tiny_model(rng);
  std::map<std::string, Tensor> before;
  for (const auto& [name, tensor] : model->state_dict()) {
    before[name] = tensor.clone();
  }

  robust::CancelSource source;
  source.cancel("test: cancelled before training");
  robust::CancelScope scope(source.token());

  eval::TrainConfig cfg;
  cfg.epochs = 2;
  EXPECT_THROW(eval::train_classifier(*model, data.train, cfg, rng),
               robust::Cancelled);

  // The poll sits at the top of the batch loop, before any optimizer work:
  // an already-cancelled scope means zero weight mutation (an integer
  // number of sgd steps — here exactly none).
  const auto after = model->state_dict();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [name, tensor] : after) {
    const Tensor& orig = before.at(name);
    ASSERT_EQ(tensor.numel(), orig.numel()) << name;
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_EQ(tensor[i], orig[i]) << name << "[" << i << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// New fault verbs: torn_write, slow_io, oom_sim
// ---------------------------------------------------------------------------

TEST_F(CheckpointRobust, TornWriteNeverReplacesGoodCheckpoint) {
  Rng rng(7);
  nn::Conv2d good(3, 4, 3, 1, 1, true, rng);
  nn::Conv2d other(3, 4, 3, 1, 1, true, rng);
  TempFile file("torn_write");
  nn::save_checkpoint(good, file.path());
  const std::string good_bytes = slurp(file.path());

  robust::FaultInjector::instance().configure("torn_write@1");
  EXPECT_THROW(nn::save_checkpoint(other, file.path()),
               robust::SimulatedCrash);

  // Crash semantics: the torn tmp file stays on disk as debris...
  ASSERT_TRUE(std::filesystem::exists(file.path() + ".tmp"));
  EXPECT_LT(std::filesystem::file_size(file.path() + ".tmp"),
            good_bytes.size());
  // ...but the committed checkpoint is byte-identical and still loads.
  EXPECT_EQ(slurp(file.path()), good_bytes);
  nn::Conv2d reloaded(3, 4, 3, 1, 1, true, rng);
  nn::load_checkpoint(reloaded, file.path());

  // After the "restart" (fault disarmed) the save path works again and
  // cleans up its tmp file.
  robust::FaultInjector::instance().reset();
  nn::save_checkpoint(other, file.path());
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
  const auto info = nn::inspect_checkpoint(file.path());
  EXPECT_TRUE(info.crc_verified);
}

TEST_F(FaultInjectorTest, SlowIoOnlyAddsLatency) {
  TempFile file("journal_slow");
  robust::FaultInjector::instance().configure("slow_io@1");
  robust::RunJournal journal(file.path());
  journal.record("k1", {{"a", "1"}});  // slowed, but must succeed
  journal.record("k2", {{"b", "2"}});

  robust::FaultInjector::instance().reset();
  robust::RunJournal reread(file.path());
  EXPECT_EQ(reread.size(), 2u);
  EXPECT_EQ(reread.find("k1")->at("a"), "1");
}

TEST_F(FaultInjectorTest, OomSimThrowsBadAlloc) {
  robust::FaultInjector::instance().configure("oom_sim@1");
  auto& faults = robust::FaultInjector::instance();
  EXPECT_THROW(faults.fire_oom("test"), robust::SimulatedOom);
  EXPECT_THROW(
      {
        robust::FaultInjector::instance().configure("oom_sim@1");
        try {
          faults.fire_oom("test");
        } catch (const std::bad_alloc&) {
          throw;  // must be catchable as bad_alloc
        }
      },
      std::bad_alloc);
}

// ---------------------------------------------------------------------------
// Degraded cells: retry determinism + journal round-trip
// ---------------------------------------------------------------------------

using TableChaos = SupervisorTest;

TEST_F(TableChaos, RetriedRunMatchesCleanRunByteForByte) {
  eval::TableSpec spec;
  spec.title = "chaos-retry";
  spec.dataset = "cifar";
  spec.arch = "vgg";
  spec.attacks = {"badnet"};
  spec.defenses = {"ft", "clp"};
  spec.scale = micro_scale();
  spec.resume = false;

  ::testing::internal::CaptureStdout();
  eval::run_table(spec);
  const std::string clean_out =
      strip_timing(::testing::internal::GetCapturedStdout());

  // Trial 2 (the clp cell's only trial) fails once and is retried from its
  // pre-drawn seed: the supervised rerun must be bit-identical, proving
  // retries never advance the global RNG or shift later seeds.
  robust::FaultInjector::instance().configure("oom_sim@2");
  ::testing::internal::CaptureStdout();
  const eval::TableRun faulted = eval::run_table(spec);
  const std::string faulted_out =
      strip_timing(::testing::internal::GetCapturedStdout());

  EXPECT_EQ(faulted_out, clean_out);
  EXPECT_EQ(faulted.degraded_cells, 0u);
  ASSERT_EQ(faulted.settings.size(), 2u);
  EXPECT_EQ(faulted.settings[0].attempts, 1);
  EXPECT_EQ(faulted.settings[1].attempts, 2);  // one retry
}

TEST_F(TableChaos, DegradedCellRoundTripsThroughJournal) {
  robust::SupervisorConfig config = fast_config();
  config.max_retries = 1;
  robust::Supervisor::instance().configure(config);

  eval::TableSpec spec;
  spec.title = "chaos-degraded";
  spec.dataset = "cifar";
  spec.arch = "vgg";
  spec.attacks = {"badnet"};
  spec.defenses = {"ft", "clp"};
  spec.scale = micro_scale();
  spec.resume = false;

  TempFile journal("journal_degraded");
  spec.journal_path = journal.path();

  // Both attempts of the first cell's only trial fail: retry budget
  // exhausted, the cell degrades, the rest of the table completes.
  robust::FaultInjector::instance().configure("oom_sim@1,oom_sim@2");
  ::testing::internal::CaptureStdout();
  const eval::TableRun first = eval::run_table(spec);
  const std::string first_out =
      strip_timing(::testing::internal::GetCapturedStdout());
  robust::FaultInjector::instance().reset();

  EXPECT_EQ(first.degraded_cells, 1u);
  ASSERT_EQ(first.settings.size(), 2u);
  EXPECT_TRUE(first.settings[0].degraded);
  EXPECT_EQ(first.settings[0].attempts, 2);
  EXPECT_NE(first.settings[0].failure.find("out-of-memory"),
            std::string::npos);
  EXPECT_FALSE(first.settings[1].degraded);
  EXPECT_NE(first_out.find("degraded"), std::string::npos);

  // Resume replays the degraded cell from the journal byte-identically —
  // failure reason, attempts and the table row all round-trip.
  spec.resume = true;
  ::testing::internal::CaptureStdout();
  const eval::TableRun resumed = eval::run_table(spec);
  const std::string resumed_out =
      strip_timing(::testing::internal::GetCapturedStdout());

  EXPECT_EQ(resumed_out, first_out);
  EXPECT_EQ(resumed.resumed_cells, 2u);
  EXPECT_EQ(resumed.degraded_cells, 1u);
  ASSERT_EQ(resumed.settings.size(), 2u);
  EXPECT_TRUE(resumed.settings[0].degraded);
  EXPECT_EQ(resumed.settings[0].attempts, 2);
  EXPECT_EQ(resumed.settings[0].failure, first.settings[0].failure);
}

}  // namespace
}  // namespace bd
