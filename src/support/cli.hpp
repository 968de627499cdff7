#pragma once

/// \file cli.hpp
/// Tiny command-line flag parser for the bench and example binaries.
/// Supports `--key=value`, `--key value`, and boolean `--flag` forms.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetero {

class CliArgs {
 public:
  /// Parses argv; throws hetero::Error on malformed input (a lone "--").
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// Throws hetero::Error when the value is empty, is not an integer, or
  /// does not fit in 64 bits.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int() for an `int` setting: throws hetero::Error naming the flag
  /// and the range when the value does not fit, instead of wrapping.
  int get_int32(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Non-flag positional arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// All flag names that were passed, sorted; lets a driver reject flags
  /// its subcommand does not understand.
  std::vector<std::string> flag_names() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace hetero
