// Tests for tools/bdlint: every rule must fire on its bad fixture, stay
// silent on idiomatic code, honor each suppression spelling, and — the
// repo invariant itself — report the real tree as clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

#ifndef BD_LINT_FIXTURE_DIR
#error "BD_LINT_FIXTURE_DIR must point at tests/lint_fixtures"
#endif
#ifndef BD_REPO_SOURCE_DIR
#error "BD_REPO_SOURCE_DIR must point at the repo root"
#endif

namespace {

using bd::lint::Finding;

std::string fixture(const std::string& name) {
  return std::string(BD_LINT_FIXTURE_DIR) + "/" + name;
}

std::set<std::string> rules_fired(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(LintCatalog, ListsEveryRule) {
  std::set<std::string> names;
  for (const auto& info : bd::lint::rule_catalog()) names.insert(info.name);
  const std::set<std::string> expected = {
      "no-nondeterminism",    "no-naked-lock",
      "no-relaxed-atomics",   "no-naked-ofstream",
      "no-swallowed-catch",   "no-unordered-iteration-to-output",
      "no-raw-socket"};
  EXPECT_EQ(names, expected);
}

TEST(LintRules, NondeterminismFixtureFires) {
  const auto findings = bd::lint::lint_file(fixture("bad_nondeterminism.cpp"));
  EXPECT_GE(count_rule(findings, "no-nondeterminism"), 4)
      << "rand/random_device/time/system_clock should each fire";
  EXPECT_EQ(rules_fired(findings),
            std::set<std::string>{"no-nondeterminism"});
}

TEST(LintRules, NakedLockFixtureFires) {
  const auto findings = bd::lint::lint_file(fixture("bad_naked_lock.cpp"));
  EXPECT_EQ(count_rule(findings, "no-naked-lock"), 2)
      << ".lock() and .unlock() should each fire";
  EXPECT_EQ(rules_fired(findings), std::set<std::string>{"no-naked-lock"});
}

TEST(LintRules, RelaxedAtomicFixtureFires) {
  const auto findings = bd::lint::lint_file(fixture("bad_relaxed_atomic.cpp"));
  EXPECT_EQ(count_rule(findings, "no-relaxed-atomics"), 2);
  EXPECT_EQ(rules_fired(findings),
            std::set<std::string>{"no-relaxed-atomics"});
}

TEST(LintRules, RelaxedAtomicWhitelistedUnderObs) {
  // The same source under src/obs/ is the sanctioned hot path.
  const auto findings = bd::lint::lint_source(
      "src/obs/metrics_hot.cpp",
      "#include <atomic>\n"
      "std::atomic<int> c{0};\n"
      "void f() { c.fetch_add(1, std::memory_order_relaxed); }\n");
  EXPECT_EQ(count_rule(findings, "no-relaxed-atomics"), 0);
}

TEST(LintRules, NakedOfstreamFixtureFires) {
  const auto findings = bd::lint::lint_file(fixture("bad_naked_ofstream.cpp"));
  EXPECT_EQ(count_rule(findings, "no-naked-ofstream"), 2)
      << "ofstream and fopen(, \"w\") should each fire";
}

TEST(LintRules, SwallowedCatchFixtureFires) {
  const auto findings =
      bd::lint::lint_file(fixture("bad_swallowed_catch.cpp"));
  EXPECT_EQ(count_rule(findings, "no-swallowed-catch"), 1);
  EXPECT_EQ(rules_fired(findings),
            std::set<std::string>{"no-swallowed-catch"});
}

TEST(LintRules, UnorderedOutputFixtureFires) {
  const auto findings =
      bd::lint::lint_file(fixture("bad_unordered_output.cpp"));
  EXPECT_EQ(count_rule(findings, "no-unordered-iteration-to-output"), 1);
}

TEST(LintRules, RawSocketFixtureFires) {
  const auto findings = bd::lint::lint_file(fixture("bad_raw_socket.cpp"));
  EXPECT_EQ(count_rule(findings, "no-raw-socket"), 6)
      << "::socket/bind/listen/connect/send/recv should each fire, "
         "std::bind and net::connect not";
  EXPECT_EQ(rules_fired(findings), std::set<std::string>{"no-raw-socket"});
}

TEST(LintRules, RawSocketAllowedInTheSocketLayer) {
  const auto findings = bd::lint::lint_source(
      "src/serve/net.cpp",
      "#include <sys/socket.h>\n"
      "int f() { return ::socket(AF_UNIX, SOCK_STREAM, 0); }\n");
  EXPECT_EQ(count_rule(findings, "no-raw-socket"), 0);
}

TEST(LintRules, CleanFixtureIsSilent) {
  const auto findings = bd::lint::lint_file(fixture("clean.cpp"));
  EXPECT_TRUE(findings.empty()) << bd::lint::format_finding(findings.front());
}

TEST(LintSuppressions, EverySpellingSilencesItsFinding) {
  const auto findings = bd::lint::lint_file(fixture("suppressed.cpp"));
  EXPECT_TRUE(findings.empty()) << bd::lint::format_finding(findings.front());
}

TEST(LintSuppressions, AllowOnlyCoversTheNamedRule) {
  const auto findings = bd::lint::lint_source(
      "some/module.cpp",
      "#include <cstdlib>\n"
      "// bdlint:allow(no-naked-lock)\n"
      "int x = std::rand();\n");
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 1)
      << "an allow for a different rule must not leak";
}

TEST(LintSuppressions, AllowTwoLinesUpWithCodeBetweenDoesNotApply) {
  const auto findings = bd::lint::lint_source(
      "some/module.cpp",
      "#include <cstdlib>\n"
      "// bdlint:allow(no-nondeterminism)\n"
      "int y = 0;\n"
      "int x = std::rand();\n");
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 1)
      << "the comment governs the first code line only";
}

TEST(LintTokenizer, CommentsAndStringsAreNotCode) {
  const auto findings = bd::lint::lint_source(
      "some/module.cpp",
      "// std::rand() in a comment\n"
      "/* mu.lock() in a block comment */\n"
      "const char* s = \"std::rand() memory_order_relaxed\";\n"
      "const char* r = R\"(mu.unlock())\";\n");
  EXPECT_TRUE(findings.empty()) << bd::lint::format_finding(findings.front());
}

TEST(LintTree, RepoIsClean) {
  const std::string root(BD_REPO_SOURCE_DIR);
  const auto findings = bd::lint::lint_tree(
      {root + "/src", root + "/examples", root + "/bench"});
  for (const Finding& f : findings) {
    ADD_FAILURE() << bd::lint::format_finding(f);
  }
}

TEST(LintTree, FixtureCorpusGuard) {
  // CI relies on the bad fixtures to keep firing; if a rule regresses to
  // silence, this catches it at the corpus level too.
  const auto findings =
      bd::lint::lint_tree({std::string(BD_LINT_FIXTURE_DIR)});
  const auto fired = rules_fired(findings);
  for (const auto& info : bd::lint::rule_catalog()) {
    EXPECT_TRUE(fired.count(info.name) == 1)
        << info.name << " no longer fires on the fixture corpus";
  }
}

}  // namespace
