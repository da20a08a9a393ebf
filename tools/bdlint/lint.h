// bdlint — repo-invariant static analysis for the backdoor-unlearning
// engine.
//
// The engine's correctness story rests on conventions the compiler cannot
// check: bitwise determinism across thread counts, byte-identical resume,
// cooperative cancellation, atomic tmp+rename output files, and a global
// lock-rank order. bdlint is a lightweight, libclang-free analyzer (a
// comment/string-aware tokenizer plus per-rule matchers) that turns those
// conventions into machine-enforced rules over `src/ examples/ bench/`.
//
// Rules (each individually suppressible):
//
//   no-nondeterminism       rand()/srand()/random_device, wall-clock time
//                           sources (system_clock, time(), clock(), ...)
//                           outside the whitelisted util/obs/robust timing
//                           sites. Hidden entropy breaks the thread-count
//                           and resume byte-identity contracts.
//   no-naked-lock           manual .lock()/.unlock() member calls; every
//                           mutex must be held through a RAII guard
//                           (lock_guard/unique_lock/scoped_lock) so no
//                           exception path leaks a held lock.
//   no-relaxed-atomics      memory_order_relaxed outside src/obs/ (the
//                           metrics hot path is the one sanctioned user);
//                           elsewhere relaxed ordering needs a justified
//                           suppression.
//   no-naked-ofstream       std::ofstream/fopen outside the atomic-write
//                           helpers in util/ and robust/; everything else
//                           must go through bd::write_file_atomic or the
//                           checkpoint/journal writers so a crash never
//                           leaves a torn output file.
//   no-swallowed-catch      catch (...) must rethrow, capture
//                           (current_exception) or log; silently eating an
//                           unknown exception hides watchdog cancellations
//                           and simulated crashes. The Supervisor/serve
//                           job boundary is exempt by path.
//   no-unordered-iteration-to-output
//                           range-for over an unordered_map/unordered_set
//                           feeding an output sink (stream <<, append,
//                           push_back, printf); hash-order iteration makes
//                           emitted tables/JSON nondeterministic.
//   no-raw-socket           ::socket/::bind/::listen/::connect/::send/
//                           ::recv outside src/serve/net.cpp, the one
//                           socket layer: every send goes through
//                           send_all's MSG_NOSIGNAL (no SIGPIPE), and a
//                           second listen/connect path cannot grow back.
//
// Suppressions:
//   // bdlint:allow(rule)          on the finding's line, the line above,
//                                  or in the comment block directly above
//                                  the statement (multi-line justifications
//                                  reach the first code line that follows)
//   // bdlint:allow(rule1,rule2)   multiple rules at once
//   // bdlint:allow-file(rule): why ...   anywhere: whole-file suppression
#pragma once

#include <string>
#include <vector>

namespace bd::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* summary;
};

/// Every rule bdlint knows, in reporting order.
const std::vector<RuleInfo>& rule_catalog();

/// Lints in-memory source. `path` is used for reporting and for the
/// per-rule path whitelists (substring match, so absolute and relative
/// spellings behave the same).
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);

/// Lints one file from disk. Unreadable files yield a single "io" finding.
std::vector<Finding> lint_file(const std::string& path);

/// Recursively lints every C++ source/header under each root (or the root
/// itself when it is a file). Results are sorted by file, then line.
std::vector<Finding> lint_tree(const std::vector<std::string>& roots);

/// "file:line: [rule] message" — clickable in editors and CI logs.
std::string format_finding(const Finding& finding);

}  // namespace bd::lint
