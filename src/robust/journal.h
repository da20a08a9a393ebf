// Append-only JSONL run journal for crash-resumable experiment sweeps.
//
// Each completed experiment cell is one line:
//
//   {"key":"<config hash>","fields":{"acc":"...","asr":"...", ...}}
//
// appended and flushed as soon as the cell finishes, so a kill between
// cells loses at most the in-flight cell. On reopen the journal tolerates
// a torn final line (a write interrupted by the kill): the damaged tail is
// dropped and the next append starts on a fresh line. Field values are
// opaque strings; callers serialize doubles with "%.17g" so that resumed
// tables are byte-identical to uninterrupted runs.
//
// Multi-writer safety: every entry is appended with O_APPEND and exactly
// one write(2) call (append_to_fd below), so concurrent appender
// processes — the sharded bench workers of src/shard/ — can never
// interleave bytes mid-line. BDPROTO_JOURNAL_FSYNC=1 additionally fsyncs
// each append for crash-durability tests.
//
// The shard lease ledger shares this header's line grammar (a schema over
// util/json.h), append_to_fd and the complete-line scanner scan_lines.
// Damage policy stays with each reader: the journal truncates a torn tail
// and throws on interior damage; the ledger buffers its tail and skips
// malformed lines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace bd::robust {

using JournalFields = std::map<std::string, std::string>;

class RunJournal {
 public:
  /// Disabled journal: has() is always false, record() is a no-op.
  RunJournal() = default;

  /// Opens (creating if absent) the journal at `path` and loads every
  /// intact entry. A torn final line is dropped with a warning; a
  /// malformed line elsewhere throws with its line number.
  explicit RunJournal(std::string path);

  bool enabled() const { return !path_.empty(); }
  std::size_t size() const { return entries_.size(); }
  bool has(const std::string& key) const { return entries_.count(key) > 0; }

  /// Entry for `key`, or nullptr when absent.
  const JournalFields* find(const std::string& key) const;

  /// All loaded entries keyed by config hash (inspection, `bdctl verify`).
  const std::map<std::string, JournalFields>& entries() const {
    return entries_;
  }

  /// Appends {key, fields} and flushes to disk before returning. Repeated
  /// keys keep the latest fields in memory. No-op when disabled.
  void record(const std::string& key, const JournalFields& fields);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::map<std::string, JournalFields> entries_;
};

/// Serializes one {key, fields} entry as a single line (trailing newline
/// included) of the journal's canonical JSONL grammar: a JSON object with
/// a string "key" and a "fields" object of strings. Shared with the shard
/// lease ledger so both files parse with the same code.
std::string encode_journal_line(const std::string& key,
                                const JournalFields& fields);

/// Parses one line of the canonical grammar into (key, fields). Returns
/// false on any deviation — including a torn line — instead of throwing,
/// so the caller decides whether the damage is tolerable.
bool parse_journal_line(std::string_view line, std::string& key,
                        JournalFields& fields);

/// Appends `bytes` to the O_APPEND descriptor `fd` with exactly one
/// write(2) call (retried on EINTR), so concurrent appenders never
/// interleave bytes mid-line. Honours BDPROTO_JOURNAL_FSYNC=1 by fsyncing
/// before returning. Throws, naming `path`, on a write error or a short
/// write (ENOSPC-class; the torn tail it may leave is the shape every
/// reader already tolerates).
void append_to_fd(int fd, std::string_view bytes, const std::string& path);

/// Opens `path` for append (creating it) and append_to_fd()s `line`.
/// Throws on open failure or a failed append.
void append_line_atomic(const std::string& path, const std::string& line);

/// Complete-line scanner for append-only line files. Calls
/// `on_line(line, offset)` for every '\n'-terminated line of `data`
/// (newline stripped, empty lines included, `offset` where the line
/// starts) and returns the offset of the unterminated tail: data.size()
/// when `data` is empty or ends in '\n'. A writer killed mid-append
/// leaves exactly such a tail.
template <typename OnLine>
std::size_t scan_lines(std::string_view data, OnLine&& on_line) {
  std::size_t start = 0;
  for (std::size_t nl = data.find('\n'); nl != std::string_view::npos;
       nl = data.find('\n', start)) {
    on_line(data.substr(start, nl - start), start);
    start = nl + 1;
  }
  return start;
}

/// FNV-1a 64-bit hash of `s`, as 16 lowercase hex digits. Stable across
/// runs and platforms (unlike std::hash), so journal keys written by one
/// process match the keys computed by the resuming one.
std::string stable_hash_hex(const std::string& s);

/// Doubles serialized for the journal ("%.17g", bit-exact through strtod).
using bd::exact_double;

/// The number in `fields[name]`, parsed whole (parse_whole, util/env.h),
/// or `fallback` when the field is absent or empty. Any other text throws
/// std::runtime_error naming the field and its value, so a damaged number
/// fails instead of reading as 0. Defined for std::int64_t and double.
template <typename T>
T journal_number(const JournalFields& fields, const char* name, T fallback);

/// The comma-separated numbers in `fields[name]`, each parsed whole; an
/// absent or empty field is an empty list. A malformed element (or an
/// empty one, as in "1,,2" or "1,") throws like journal_number.
template <typename T>
std::vector<T> journal_numbers(const JournalFields& fields, const char* name);

}  // namespace bd::robust
