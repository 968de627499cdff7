#pragma once

/// \file error.hpp
/// Error handling primitives shared by every heterolab module.
///
/// Policy (follows C++ Core Guidelines E.2/E.3): violated preconditions
/// throw `hetero::Error` carrying their message, which is what a CLI user
/// or a service client reads; broken internal invariants (heterolab bugs)
/// also carry the failed expression and source location. Callers that can
/// recover catch it, everything else terminates with a readable message.

#include <stdexcept>
#include <string>

namespace hetero {

/// Exception thrown by HETERO_REQUIRE / HETERO_CHECK and by modules that
/// detect unrecoverable misuse (bad arguments, broken invariants).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Throw sites kept out of line so the macros stay cheap.
[[noreturn]] void throw_error(const std::string& message);
[[noreturn]] void throw_check_failed(const char* expr, const char* file,
                                     int line);
}  // namespace detail

}  // namespace hetero

/// Precondition check that is always on (release included): throws an
/// `Error` whose text is exactly `msg`, a string (or string expression).
#define HETERO_REQUIRE(expr, msg)              \
  do {                                         \
    if (!(expr)) {                             \
      ::hetero::detail::throw_error((msg));    \
    }                                          \
  } while (false)

/// Internal consistency check, always on: a failure is a heterolab bug, so
/// its `Error` names the failed expression and its source location.
#define HETERO_CHECK(expr)                                                  \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::hetero::detail::throw_check_failed(#expr, __FILE__, __LINE__);      \
    }                                                                       \
  } while (false)
