#include "support/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "support/error.hpp"

namespace hetero {

namespace {

std::string out_of_range(const std::string& key, const std::string& text,
                         std::int64_t min, std::int64_t max) {
  return "flag --" + key + " is out of range [" + std::to_string(min) +
         ", " + std::to_string(max) + "]: " + text;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  HETERO_REQUIRE(argc >= 1, "CliArgs requires argv[0]");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    HETERO_REQUIRE(arg.size() > 2, "lone '--' is not a valid flag");
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";  // boolean flag
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return flags_.count(key) != 0;
}

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [key, value] : flags_) {
    names.push_back(key);
  }
  return names;
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const std::int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  HETERO_REQUIRE(end != nullptr && end != it->second.c_str() && *end == '\0',
                 "flag --" + key + " is not an integer: " + it->second);
  HETERO_REQUIRE(errno != ERANGE,
                 out_of_range(key, it->second,
                              std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max()));
  return value;
}

int CliArgs::get_int32(const std::string& key, int fallback) const {
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  const std::int64_t value = get_int(key, fallback);
  HETERO_REQUIRE(value >= kMin && value <= kMax,
                 out_of_range(key, get_string(key, ""), kMin, kMax));
  return static_cast<int>(value);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  HETERO_REQUIRE(end != nullptr && *end == '\0',
                 "flag --" + key + " is not a number: " + it->second);
  return value;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw Error("flag --" + key + " is not a boolean: " + v);
}

}  // namespace hetero
