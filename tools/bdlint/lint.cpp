#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace bd::lint {

namespace {

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Comment/string-stripped view of one translation unit: `code` mirrors the
/// input byte-for-byte with comment bodies and literal contents blanked to
/// spaces (newlines kept, so offsets and line numbers survive), and
/// `comments` collects the raw comment text per line for suppressions.
struct StrippedSource {
  std::string code;
  std::vector<std::string> comments;  // 1-based line -> comment text
  std::vector<std::size_t> line_starts;

  int line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<int>(it - line_starts.begin());
  }
};

StrippedSource strip(const std::string& src) {
  StrippedSource out;
  out.code.assign(src.size(), ' ');
  const int total_lines =
      1 + static_cast<int>(std::count(src.begin(), src.end(), '\n'));
  out.comments.assign(static_cast<std::size_t>(total_lines) + 2, "");
  out.line_starts.push_back(0);

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_terminator;  // )delim" for the active raw string
  int line = 1;

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
      out.line_starts.push_back(i + 1);
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.comments[static_cast<std::size_t>(line)] += "//";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' && i >= 1 && src[i - 1] == 'R') {
          // Raw string literal: R"delim( ... )delim"
          std::size_t j = i + 1;
          std::string delim;
          while (j < src.size() && src[j] != '(' && delim.size() < 16) {
            delim += src[j++];
          }
          raw_terminator = ")" + delim + "\"";
          out.code[i] = '"';
          state = State::kRawString;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kString;
        } else if (c == '\'' && !(i >= 1 && is_word_char(src[i - 1]))) {
          // A digit separator (1'000'000) is not a char literal.
          out.code[i] = '\'';
          state = State::kChar;
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
        out.comments[static_cast<std::size_t>(line)] += c;
        break;
      case State::kBlockComment:
        out.comments[static_cast<std::size_t>(line)] += c;
        if (c == '*' && next == '/') {
          out.comments[static_cast<std::size_t>(line)] += '/';
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip the escaped character (newlines handled above)
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == raw_terminator[0] &&
            src.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          i += raw_terminator.size() - 1;
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::size_t find_token(const std::string& code, const std::string& token,
                       std::size_t from = 0) {
  for (std::size_t pos = code.find(token, from); pos != std::string::npos;
       pos = code.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !is_word_char(code[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !is_word_char(code[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

std::size_t skip_ws(const std::string& code, std::size_t pos) {
  while (pos < code.size() &&
         std::isspace(static_cast<unsigned char>(code[pos])) != 0) {
    ++pos;
  }
  return pos;
}

std::size_t skip_ws_back(const std::string& code, std::size_t pos) {
  // Returns the index of the last non-space char strictly before pos, or
  // npos when none exists.
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) return pos;
  }
  return std::string::npos;
}

/// Matches a bracket pair starting at `open_pos` (which must hold `open`);
/// returns the offset of the closing bracket or npos.
std::size_t match_bracket(const std::string& code, std::size_t open_pos,
                          char open, char close) {
  int depth = 0;
  for (std::size_t i = open_pos; i < code.size(); ++i) {
    if (code[i] == open) ++depth;
    else if (code[i] == close && --depth == 0) return i;
  }
  return std::string::npos;
}

bool path_contains(const std::string& path,
                   std::initializer_list<const char*> needles) {
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  for (const char* needle : needles) {
    if (normalized.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// Parses every "bdlint:allow(...)" / "bdlint:allow-file(...)" list in
/// `text` and appends the named rules to `rules`.
void parse_allow_lists(const std::string& text, const std::string& marker,
                       std::set<std::string>& rules) {
  for (std::size_t pos = text.find(marker); pos != std::string::npos;
       pos = text.find(marker, pos + 1)) {
    const std::size_t open = pos + marker.size();
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) continue;
    std::string list = text.substr(open, close - open);
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const std::size_t a = rule.find_first_not_of(" \t");
      const std::size_t b = rule.find_last_not_of(" \t");
      if (a != std::string::npos) rules.insert(rule.substr(a, b - a + 1));
    }
  }
}

class Suppressions {
 public:
  Suppressions(const StrippedSource& stripped) {
    per_line_.assign(stripped.comments.size(), {});
    for (std::size_t i = 0; i < stripped.comments.size(); ++i) {
      const std::string& text = stripped.comments[i];
      if (text.find("bdlint:") == std::string::npos) continue;
      parse_allow_lists(text, "bdlint:allow(", per_line_[i]);
      parse_allow_lists(text, "bdlint:allow-file(", whole_file_);
    }
    // An allow written in a comment block governs the statement below it,
    // even when the justification spans several comment lines or the
    // statement wraps: propagate rules on code-free lines down to the first
    // line carrying code and through that statement's continuation lines
    // (until a line ends in ';', '{' or '}'). Propagated allows live in a
    // separate map so they never leak past the governed statement the way
    // the literal line-above rule would.
    propagated_.assign(per_line_.size(), {});
    const std::size_t total = stripped.line_starts.size();
    for (std::size_t i = 1; i < per_line_.size() && i <= total; ++i) {
      if (per_line_[i].empty() || line_has_code(stripped, i)) continue;
      std::size_t j = i + 1;
      while (j <= total && !line_has_code(stripped, j)) ++j;
      for (int span = 0; j <= total && j < propagated_.size() && span < 8;
           ++j, ++span) {
        propagated_[j].insert(per_line_[i].begin(), per_line_[i].end());
        if (statement_ends_on(stripped, j)) break;
      }
    }
  }

  bool allowed(const std::string& rule, int line) const {
    if (whole_file_.count(rule) != 0) return true;
    const auto at = [&](const std::vector<std::set<std::string>>& map,
                       int l) {
      return l >= 0 && static_cast<std::size_t>(l) < map.size() &&
             map[static_cast<std::size_t>(l)].count(rule) != 0;
    };
    return at(per_line_, line) || at(per_line_, line - 1) ||
           at(propagated_, line);
  }

 private:
  static bool line_has_code(const StrippedSource& stripped, std::size_t line) {
    const std::size_t begin = stripped.line_starts[line - 1];
    const std::size_t end = line < stripped.line_starts.size()
                                ? stripped.line_starts[line]
                                : stripped.code.size();
    for (std::size_t i = begin; i < end; ++i) {
      if (std::isspace(static_cast<unsigned char>(stripped.code[i])) == 0) {
        return true;
      }
    }
    return false;
  }

  static bool statement_ends_on(const StrippedSource& stripped,
                                std::size_t line) {
    const std::size_t begin = stripped.line_starts[line - 1];
    const std::size_t end = line < stripped.line_starts.size()
                                ? stripped.line_starts[line]
                                : stripped.code.size();
    for (std::size_t i = end; i > begin; --i) {
      const char c = stripped.code[i - 1];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
      return c == ';' || c == '{' || c == '}';
    }
    return false;
  }

  std::vector<std::set<std::string>> per_line_;
  std::vector<std::set<std::string>> propagated_;
  std::set<std::string> whole_file_;
};

struct LintContext {
  const std::string& path;
  const StrippedSource& stripped;
  const Suppressions& suppressions;
  std::vector<Finding>& findings;

  void report(const std::string& rule, std::size_t offset,
              const std::string& message) {
    const int line = stripped.line_of(offset);
    if (suppressions.allowed(rule, line)) return;
    findings.push_back({path, line, rule, message});
  }
};

// ---------------------------------------------------------------------------
// no-nondeterminism

void rule_no_nondeterminism(LintContext& ctx) {
  if (path_contains(ctx.path, {"src/util/", "src/obs/", "src/robust/"})) {
    return;  // whitelisted timing/entropy sites (rng, stopwatch, watchdog)
  }
  const std::string& code = ctx.stripped.code;
  static const char* kBannedAnywhere[] = {
      "random_device", "system_clock", "high_resolution_clock",
      "gettimeofday", "localtime", "drand48"};
  for (const char* token : kBannedAnywhere) {
    for (std::size_t pos = find_token(code, token); pos != std::string::npos;
         pos = find_token(code, token, pos + 1)) {
      ctx.report("no-nondeterminism", pos,
                 std::string(token) +
                     " breaks the bitwise thread-count/resume determinism "
                     "contract; derive from bd::Rng seeds or steady_clock");
    }
  }
  static const char* kBannedCalls[] = {"rand", "srand", "rand_r", "time",
                                       "clock"};
  for (const char* token : kBannedCalls) {
    for (std::size_t pos = find_token(code, token); pos != std::string::npos;
         pos = find_token(code, token, pos + 1)) {
      const std::size_t after = skip_ws(code, pos + std::string(token).size());
      if (after >= code.size() || code[after] != '(') continue;
      ctx.report("no-nondeterminism", pos,
                 std::string(token) +
                     "() is hidden entropy/wall-clock state; use bd::Rng "
                     "with a journaled seed or steady_clock");
    }
  }
}

// ---------------------------------------------------------------------------
// no-naked-lock

void rule_no_naked_lock(LintContext& ctx) {
  const std::string& code = ctx.stripped.code;
  for (const char* token : {"lock", "unlock"}) {
    for (std::size_t pos = find_token(code, token); pos != std::string::npos;
         pos = find_token(code, token, pos + 1)) {
      // Member call: receiver '.' or '->' on the left...
      const std::size_t before = skip_ws_back(code, pos);
      const bool member =
          before != std::string::npos &&
          (code[before] == '.' ||
           (code[before] == '>' && before >= 1 && code[before - 1] == '-'));
      if (!member) continue;
      // ...and an empty argument list on the right.
      std::size_t after = skip_ws(code, pos + std::string(token).size());
      if (after >= code.size() || code[after] != '(') continue;
      after = skip_ws(code, after + 1);
      if (after >= code.size() || code[after] != ')') continue;
      ctx.report("no-naked-lock", pos,
                 std::string("manual .") + token +
                     "() — hold mutexes through lock_guard/unique_lock/"
                     "scoped_lock so no exception path leaks the lock");
    }
  }
}

// ---------------------------------------------------------------------------
// no-relaxed-atomics

void rule_no_relaxed_atomics(LintContext& ctx) {
  if (path_contains(ctx.path, {"src/obs/"})) return;
  const std::string& code = ctx.stripped.code;
  for (std::size_t pos = find_token(code, "memory_order_relaxed");
       pos != std::string::npos;
       pos = find_token(code, "memory_order_relaxed", pos + 1)) {
    ctx.report("no-relaxed-atomics", pos,
               "memory_order_relaxed outside src/obs/ — default to seq_cst "
               "or acquire/release, or suppress with a justification");
  }
}

// ---------------------------------------------------------------------------
// no-naked-ofstream

void rule_no_naked_ofstream(LintContext& ctx) {
  if (path_contains(ctx.path, {"src/util/", "src/robust/"})) return;
  const std::string& code = ctx.stripped.code;
  for (std::size_t pos = find_token(code, "ofstream");
       pos != std::string::npos; pos = find_token(code, "ofstream", pos + 1)) {
    ctx.report("no-naked-ofstream", pos,
               "raw ofstream can leave a torn file on crash; use "
               "bd::write_file_atomic (util/atomic_file.h) or the "
               "checkpoint/journal writers");
  }
  for (std::size_t pos = find_token(code, "fopen"); pos != std::string::npos;
       pos = find_token(code, "fopen", pos + 1)) {
    const std::size_t after = skip_ws(code, pos + 5);
    if (after >= code.size() || code[after] != '(') continue;
    ctx.report("no-naked-ofstream", pos,
               "raw fopen() can leave a torn file on crash; use "
               "bd::write_file_atomic (util/atomic_file.h)");
  }
}

// ---------------------------------------------------------------------------
// no-swallowed-catch

void rule_no_swallowed_catch(LintContext& ctx) {
  if (path_contains(ctx.path, {"robust/supervisor.", "serve/service."})) {
    return;  // the sanctioned job boundary: failures become RunReports
  }
  const std::string& code = ctx.stripped.code;
  for (std::size_t pos = find_token(code, "catch"); pos != std::string::npos;
       pos = find_token(code, "catch", pos + 1)) {
    std::size_t open = skip_ws(code, pos + 5);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_bracket(code, open, '(', ')');
    if (close == std::string::npos) continue;
    std::string params = code.substr(open + 1, close - open - 1);
    params.erase(std::remove_if(params.begin(), params.end(),
                                [](unsigned char c) {
                                  return std::isspace(c) != 0;
                                }),
                 params.end());
    if (params != "...") continue;
    const std::size_t brace = skip_ws(code, close + 1);
    if (brace >= code.size() || code[brace] != '{') continue;
    const std::size_t end = match_bracket(code, brace, '{', '}');
    if (end == std::string::npos) continue;
    const std::string body = code.substr(brace, end - brace + 1);
    const bool handled = find_token(body, "throw") != std::string::npos ||
                         find_token(body, "rethrow_exception") !=
                             std::string::npos ||
                         find_token(body, "current_exception") !=
                             std::string::npos ||
                         find_token(body, "BD_LOG") != std::string::npos ||
                         find_token(body, "abort") != std::string::npos ||
                         find_token(body, "terminate") != std::string::npos;
    if (handled) continue;
    ctx.report("no-swallowed-catch", pos,
               "catch (...) swallows the exception — rethrow, capture via "
               "current_exception, or BD_LOG it (silent loss hides watchdog "
               "cancellations and injected faults)");
  }
}

// ---------------------------------------------------------------------------
// no-unordered-iteration-to-output

std::string identifier_after_template(const std::string& code,
                                      std::size_t pos) {
  // `pos` points just past "unordered_map"/"unordered_set"; skip the
  // template argument list and read the declared identifier, if any.
  std::size_t i = skip_ws(code, pos);
  if (i >= code.size() || code[i] != '<') return "";
  int depth = 0;
  for (; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    else if (code[i] == '>' && --depth == 0) { ++i; break; }
    else if (code[i] == ';') return "";  // e.g. `using X = unordered_map<..>;`
  }
  i = skip_ws(code, i);
  while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
    i = skip_ws(code, i + 1);
  }
  std::string name;
  while (i < code.size() && is_word_char(code[i])) name += code[i++];
  return name;
}

std::string first_identifier(const std::string& expr) {
  std::size_t i = 0;
  while (i < expr.size()) {
    if (is_word_char(expr[i]) &&
        std::isdigit(static_cast<unsigned char>(expr[i])) == 0) {
      std::string name;
      while (i < expr.size() && is_word_char(expr[i])) name += expr[i++];
      if (name == "const" || name == "auto" || name == "this" ||
          name == "std" || name == "as_const") {
        continue;  // qualifiers and wrappers; keep scanning
      }
      return name;
    }
    ++i;
  }
  return "";
}

void rule_no_unordered_iteration(LintContext& ctx) {
  const std::string& code = ctx.stripped.code;

  std::set<std::string> unordered_names;
  for (const char* container : {"unordered_map", "unordered_set",
                                "unordered_multimap", "unordered_multiset"}) {
    for (std::size_t pos = find_token(code, container);
         pos != std::string::npos;
         pos = find_token(code, container, pos + 1)) {
      const std::string name = identifier_after_template(
          code, pos + std::string(container).size());
      if (!name.empty()) unordered_names.insert(name);
    }
  }
  if (unordered_names.empty()) return;

  for (std::size_t pos = find_token(code, "for"); pos != std::string::npos;
       pos = find_token(code, "for", pos + 1)) {
    const std::size_t open = skip_ws(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_bracket(code, open, '(', ')');
    if (close == std::string::npos) continue;
    const std::string header = code.substr(open + 1, close - open - 1);
    // Range-for: a top-level ':' that is not part of '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = 0; i < header.size(); ++i) {
      const char c = header[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ':' && depth == 0) {
        const bool dbl = (i + 1 < header.size() && header[i + 1] == ':') ||
                         (i >= 1 && header[i - 1] == ':');
        if (!dbl) { colon = i; break; }
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = first_identifier(header.substr(colon + 1));
    if (range.empty() || unordered_names.count(range) == 0) continue;

    // The loop body: braced block or single statement.
    std::size_t body_begin = skip_ws(code, close + 1);
    std::string body;
    if (body_begin < code.size() && code[body_begin] == '{') {
      const std::size_t body_end = match_bracket(code, body_begin, '{', '}');
      if (body_end == std::string::npos) continue;
      body = code.substr(body_begin, body_end - body_begin + 1);
    } else {
      const std::size_t semi = code.find(';', body_begin);
      if (semi == std::string::npos) continue;
      body = code.substr(body_begin, semi - body_begin + 1);
    }
    const bool sinks = body.find("<<") != std::string::npos ||
                       body.find("+=") != std::string::npos ||
                       find_token(body, "append") != std::string::npos ||
                       find_token(body, "push_back") != std::string::npos ||
                       find_token(body, "emplace_back") !=
                           std::string::npos ||
                       find_token(body, "printf") != std::string::npos ||
                       find_token(body, "snprintf") != std::string::npos ||
                       find_token(body, "write") != std::string::npos;
    if (!sinks) continue;
    ctx.report("no-unordered-iteration-to-output", pos,
               "iterating '" + range +
                   "' (unordered container) into an output sink — hash "
                   "order is nondeterministic; use std::map or sort first");
  }
}

// ---------------------------------------------------------------------------
// no-raw-socket

void rule_no_raw_socket(LintContext& ctx) {
  if (path_contains(ctx.path, {"src/serve/net.cpp"})) {
    return;  // the one socket layer
  }
  const std::string& code = ctx.stripped.code;
  for (const std::string call :
       {"socket", "bind", "listen", "connect", "send", "recv"}) {
    for (std::size_t pos = find_token(code, call); pos != std::string::npos;
         pos = find_token(code, call, pos + 1)) {
      // Only the global-scope spelling `::call(` names the syscall;
      // `std::bind(` or `net::connect(` has a scope before the `::`.
      if (pos < 2 || code.compare(pos - 2, 2, "::") != 0) continue;
      const std::size_t scope = skip_ws_back(code, pos - 2);
      if (scope != std::string::npos &&
          (is_word_char(code[scope]) || code[scope] == '>')) {
        continue;
      }
      const std::size_t after = skip_ws(code, pos + call.size());
      if (after >= code.size() || code[after] != '(') continue;
      ctx.report("no-raw-socket", pos - 2,
                 "::" + call +
                     "() outside src/serve/net.cpp — listen and connect "
                     "through net::listen/net::connect and send through "
                     "net::send_all (MSG_NOSIGNAL, so a dead peer cannot "
                     "SIGPIPE the process)");
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"no-nondeterminism",
       "rand()/random_device/wall-clock time outside util|obs|robust"},
      {"no-naked-lock",
       "manual .lock()/.unlock(); require RAII guards"},
      {"no-relaxed-atomics",
       "memory_order_relaxed outside src/obs/"},
      {"no-naked-ofstream",
       "ofstream/fopen outside the util|robust atomic-write helpers"},
      {"no-swallowed-catch",
       "catch (...) must rethrow, capture or log"},
      {"no-unordered-iteration-to-output",
       "unordered container iteration feeding an output sink"},
      {"no-raw-socket",
       "::socket/bind/listen/connect/send/recv outside src/serve/net.cpp"},
  };
  return catalog;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  const StrippedSource stripped = strip(content);
  const Suppressions suppressions(stripped);
  std::vector<Finding> findings;
  LintContext ctx{path, stripped, suppressions, findings};
  rule_no_nondeterminism(ctx);
  rule_no_naked_lock(ctx);
  rule_no_relaxed_atomics(ctx);
  rule_no_naked_ofstream(ctx);
  rule_no_swallowed_catch(ctx);
  rule_no_unordered_iteration(ctx);
  rule_no_raw_socket(ctx);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "io", "cannot open file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_source(path, buffer.str());
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExtensions = {".h", ".hpp", ".cpp",
                                                    ".cc", ".cxx"};
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      if (kExtensions.count(it->path().extension().string()) == 0) continue;
      files.push_back(it->path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::vector<Finding> file_findings = lint_file(file);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  return findings;
}

std::string format_finding(const Finding& finding) {
  std::ostringstream os;
  os << finding.file << ':' << finding.line << ": [" << finding.rule << "] "
     << finding.message;
  return os.str();
}

}  // namespace bd::lint
