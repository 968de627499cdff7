#include "support/error.hpp"

namespace hetero::detail {

void throw_error(const std::string& message) { throw Error(message); }

void throw_check_failed(const char* expr, const char* file, int line) {
  throw Error(std::string("check failed: (") + expr + ") at " + file + ":" +
              std::to_string(line) + " — internal invariant violated");
}

}  // namespace hetero::detail
