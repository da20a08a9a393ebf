#include "robust/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "robust/fault_injector.h"
#include "util/env.h"
#include "util/logging.h"

namespace bd::robust {

namespace {

/// Calls `on_line(line, offset)` for every '\n'-terminated line of `data`
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

}  // namespace

std::string encode_journal_line(const std::string& key,
                                const JournalFields& fields) {
  JsonObject body;
  for (const auto& [name, value] : fields) body.set(name, value);
  return JsonObject().set("key", key).set_raw("fields", body.str()).str() +
         '\n';
}

bool parse_journal_line(std::string_view line, std::string& key,
                        JournalFields& fields) {
  Json value;
  std::string error;
  if (!Json::parse(line, value, error) || value.members().size() != 2) {
    return false;
  }
  const Json* key_value = value.find("key");
  const Json* field_values = value.find("fields");
  if (key_value == nullptr || !key_value->is_string() ||
      field_values == nullptr || !field_values->is_object()) {
    return false;
  }
  JournalFields decoded;
  for (const auto& [name, field] : field_values->members()) {
    if (!field.is_string()) return false;
    decoded[name] = field.as_string();
  }
  key = key_value->as_string();
  fields = std::move(decoded);
  return true;
}

void append_line_atomic(const std::string& path, const std::string& line) {
  // Read (and validate) the knob first: a bad value must fail the append
  // before any byte lands, never after.
  const bool sync = env_int("BDPROTO_JOURNAL_FSYNC").value_or(0) != 0;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("journal: cannot open '" + path +
                             "' for append: " + std::strerror(errno));
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  ssize_t n;
  do {
    n = ::write(fd, line.data(), line.size());
  } while (n < 0 && errno == EINTR);
  if (n != static_cast<ssize_t>(line.size())) {
    const std::string reason = n < 0 ? std::strerror(errno) : "short write";
    throw std::runtime_error("write failure on '" + path + "': " + reason);
  }
  if (sync) ::fsync(fd);
}

RunJournal::RunJournal(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // journal does not exist yet: start empty
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();

  // Loads one line. A damaged FINAL line is the expected shape after a
  // kill mid-append: drop it by truncating the file back to the last
  // intact entry. Damage anywhere else is corruption worth failing loudly.
  std::size_t line_no = 0;
  const auto load = [&](std::string_view line, std::size_t offset) {
    ++line_no;
    if (line.empty()) return true;
    std::string key;
    JournalFields fields;
    if (parse_journal_line(line, key, fields)) {
      entries_[key] = std::move(fields);
      return true;
    }
    if (offset + line.size() + 1 < data.size()) {
      throw std::runtime_error("journal '" + path_ + "': malformed line " +
                               std::to_string(line_no));
    }
    BD_LOG(Warn) << "journal '" << path_ << "': dropping torn final line "
                 << line_no << " (" << line.size() << " bytes)";
    std::filesystem::resize_file(path_, static_cast<std::uintmax_t>(offset));
    return false;
  };
  const std::size_t tail = scan_lines(data, load);
  // An intact final entry that only lost its newline is re-terminated so
  // the next append starts on a fresh line.
  if (tail < data.size() && load(std::string_view(data).substr(tail), tail)) {
    append_line_atomic(path_, "\n");
  }
}

const JournalFields* RunJournal::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void RunJournal::record(const std::string& key, const JournalFields& fields) {
  if (!enabled()) return;

  // Fault sites fire BEFORE any byte is written: a failed append that the
  // supervisor retries must re-append a whole line, never extend a torn one.
  auto& faults = FaultInjector::instance();
  faults.fire_slow_io("journal append '" + path_ + "'");
  faults.fire_io("journal append '" + path_ + "'");

  append_line_atomic(path_, encode_journal_line(key, fields));
  entries_[key] = fields;
}

namespace {

/// `text` parsed whole: one number of the field `name`, whose full text is
/// `value`. Throws std::runtime_error naming the field and that text.
template <typename T>
T field_number(std::string_view text, const char* name,
               const std::string& value) {
  const std::optional<T> v = parse_whole<T>(text);
  if (!v) {
    throw std::runtime_error(std::string("journal field '") + name +
                             "' is malformed: '" + value + "'");
  }
  return *v;
}

}  // namespace

template <typename T>
T journal_number(const JournalFields& fields, const char* name, T fallback) {
  const auto it = fields.find(name);
  if (it == fields.end() || it->second.empty()) return fallback;
  return field_number<T>(it->second, name, it->second);
}

template <typename T>
std::vector<T> journal_numbers(const JournalFields& fields, const char* name) {
  std::vector<T> out;
  const auto it = fields.find(name);
  if (it == fields.end() || it->second.empty()) return out;
  std::string_view rest = it->second;
  for (;;) {
    const std::size_t comma = rest.find(',');
    out.push_back(field_number<T>(rest.substr(0, comma), name, it->second));
    if (comma == std::string_view::npos) return out;
    rest.remove_prefix(comma + 1);
  }
}

template std::int64_t journal_number<std::int64_t>(const JournalFields&,
                                                   const char*, std::int64_t);
template double journal_number<double>(const JournalFields&, const char*,
                                       double);
template std::vector<std::int64_t> journal_numbers<std::int64_t>(
    const JournalFields&, const char*);
template std::vector<double> journal_numbers<double>(const JournalFields&,
                                                     const char*);

std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string stable_hash_hex(const std::string& s) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(stable_hash(s)));
  return buf;
}

}  // namespace bd::robust
