#include "util/env.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>

namespace bd {

std::optional<std::string> env_string(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

template std::optional<std::int64_t> parse_whole<std::int64_t>(
    std::string_view);
template std::optional<double> parse_whole<double>(std::string_view);

namespace {

/// `name`'s value as a whole T; an empty value means unset.
template <typename T>
std::optional<T> env_whole(const std::string& name, const char* expected) {
  const auto value = env_string(name);
  if (!value || value->empty()) return std::nullopt;
  const auto v = parse_whole<T>(*value);
  if (!v) {
    throw std::invalid_argument(name + "='" + *value + "' is not " +
                                expected);
  }
  return v;
}

}  // namespace

std::optional<std::int64_t> env_int(const std::string& name) {
  return env_whole<std::int64_t>(name, "an integer");
}

std::optional<double> env_double(const std::string& name) {
  return env_whole<double>(name, "a number");
}

RunMode env_run_mode() {
  const auto s = env_string("BDPROTO_MODE");
  if (!s || s->empty() || *s == "quick") return RunMode::kQuick;
  if (*s == "full") return RunMode::kFull;
  throw std::invalid_argument("BDPROTO_MODE='" + *s +
                              "' is not quick or full");
}

RunMode run_mode() {
  static const RunMode mode = env_run_mode();
  return mode;
}

bool full_mode() { return run_mode() == RunMode::kFull; }

int trial_count(int quick_default, int full_default) {
  if (const auto n = env_int("BDPROTO_TRIALS")) {
    if (*n < 1 || *n > std::numeric_limits<int>::max()) {
      throw std::invalid_argument("BDPROTO_TRIALS='" + std::to_string(*n) +
                                  "' is not a count >= 1");
    }
    return static_cast<int>(*n);
  }
  return full_mode() ? full_default : quick_default;
}

int thread_count() {
  static const int count = [] {
    if (const auto n = env_int("BDPROTO_THREADS")) {
      return std::max(1, static_cast<int>(*n));
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
  }();
  return count;
}

std::uint64_t base_seed() {
  if (const auto n = env_int("BDPROTO_SEED")) {
    return static_cast<std::uint64_t>(*n);
  }
  return 1234;
}

}  // namespace bd
