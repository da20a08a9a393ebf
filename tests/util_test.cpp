// Unit tests for util: RNG determinism/statistics (normal draws pinned to
// the bit), stats accumulators, table formatting, env-based configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>

#include "util/env.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace bd {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(3, 1), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

// normal() calls libm's log, sqrt, sin and cos. These bits pin the draws
// every table is built from, so a libm that rounds differently fails here,
// by name, rather than as moved table cells.
TEST(Rng, NormalDrawsArePinnedToTheBit) {
  Rng rng(2024);
  for (const std::uint64_t want :
       {0xbfd43ed06b8ce9a0ull, 0x3ff175bc5a8302c2ull, 0xbff7b2ebc7fea985ull,
        0x3fe96b2141e368e3ull}) {
    const double v = rng.normal();
    std::uint64_t got = 0;
    std::memcpy(&got, &v, sizeof(got));
    EXPECT_EQ(got, want) << "normal() drew " << v;
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
  std::vector<int> empty;
  EXPECT_NO_THROW(rng.shuffle(empty));
}

TEST(Rng, ForkIndependence) {
  Rng a(31);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, MeanStdString) {
  EXPECT_EQ(mean_std_string({90.0}), "90.00");
  EXPECT_EQ(mean_std_string({1.0, 3.0}, 1), "2.0±1.4");
}

TEST(Table, FormatsAlignedRows) {
  TextTable t({"A", "Blah"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| A "), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsBadRows) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Table, CsvEscapesCommas) {
  TextTable t({"A"});
  t.add_row({"1,2"});
  EXPECT_NE(t.to_csv().find("1;2"), std::string::npos);
}

// A knob either parses as a whole or throws, naming the variable and its
// value; only an empty value means unset. A numeric prefix ("2x", "1e3")
// or a word ("true") must never silently become some number or a default.
TEST(Env, IntParsing) {
  setenv("BD_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("BD_TEST_INT").value(), 42);
  for (const char* bad : {"nonsense", "2x", "1e3", "true", " 5"}) {
    setenv("BD_TEST_INT", bad, 1);
    EXPECT_THROW(env_int("BD_TEST_INT"), std::invalid_argument) << bad;
  }
  try {
    env_int("BD_TEST_INT");
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "BD_TEST_INT=' 5' is not an integer");
  }
  setenv("BD_TEST_INT", "", 1);
  EXPECT_FALSE(env_int("BD_TEST_INT").has_value());
  unsetenv("BD_TEST_INT");
  EXPECT_FALSE(env_int("BD_TEST_INT").has_value());
}

TEST(Env, DoubleParsing) {
  setenv("BD_TEST_DOUBLE", "1e3", 1);
  EXPECT_EQ(env_double("BD_TEST_DOUBLE").value(), 1000.0);
  for (const char* bad : {"nonsense", "2x", "true", "1.5s"}) {
    setenv("BD_TEST_DOUBLE", bad, 1);
    EXPECT_THROW(env_double("BD_TEST_DOUBLE"), std::invalid_argument) << bad;
  }
  setenv("BD_TEST_DOUBLE", "", 1);
  EXPECT_FALSE(env_double("BD_TEST_DOUBLE").has_value());
  unsetenv("BD_TEST_DOUBLE");
}

// The one whole-value rule the env knobs and the CLI front ends share.
TEST(Env, ParseWholeIsTheSharedRule) {
  EXPECT_EQ(parse_whole<std::int64_t>("-42"), std::int64_t{-42});
  EXPECT_EQ(parse_whole<double>("2.5e-1"), 0.25);
  for (const char* bad : {"", " 8", "+8", "8 ", "8x", "1e3", "0x10",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_whole<std::int64_t>(bad).has_value()) << bad;
  }
  for (const char* bad : {"", " 1.5", "+1.5", "1.5s", "1e999"}) {
    EXPECT_FALSE(parse_whole<double>(bad).has_value()) << bad;
  }
}

TEST(Env, ModeAndTrialParsing) {
  setenv("BDPROTO_MODE", "full", 1);
  EXPECT_EQ(env_run_mode(), RunMode::kFull);
  setenv("BDPROTO_MODE", "", 1);
  EXPECT_EQ(env_run_mode(), RunMode::kQuick);
  for (const char* bad : {"fulll", "2x", "1e3", "true"}) {
    setenv("BDPROTO_MODE", bad, 1);
    EXPECT_THROW(env_run_mode(), std::invalid_argument) << bad;
  }
  unsetenv("BDPROTO_MODE");
  EXPECT_EQ(env_run_mode(), RunMode::kQuick);
  for (const char* bad : {"0", "-1", "1e3"}) {
    setenv("BDPROTO_TRIALS", bad, 1);
    EXPECT_THROW(trial_count(1, 5), std::invalid_argument) << bad;
  }
  unsetenv("BDPROTO_TRIALS");
}

TEST(Stopwatch, MonotoneAndResettable) {
  Stopwatch watch;
  const double t1 = watch.seconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const double t2 = watch.seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(watch.milliseconds(), t2 * 1e3 * 0.5);
  watch.reset();
  EXPECT_LT(watch.seconds(), t2 + 1.0);
}

TEST(Logging, LevelRoundTrip) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages must not crash (output is suppressed).
  BD_LOG(Debug) << "invisible";
  BD_LOG(Info) << "also invisible";
  set_log_level(original);
}

TEST(Env, ScaledPicksByMode) {
  // In the test environment BDPROTO_MODE is unset -> quick.
  EXPECT_EQ(scaled(1, 2), full_mode() ? 2 : 1);
}

}  // namespace
}  // namespace bd
