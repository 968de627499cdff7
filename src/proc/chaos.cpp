#include "proc/chaos.hpp"

#include <cstdlib>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/record_log.hpp"

namespace hetero::proc {

namespace {

/// Per-kind salts keep the three decisions independent.
constexpr std::uint64_t kCrashSalt = 0x70726F63'63726173ULL;  // "proc cras"
constexpr std::uint64_t kHangSalt = 0x70726F63'68616E67ULL;   // "proc hang"
constexpr std::uint64_t kExitSalt = 0x70726F63'65786974ULL;   // "proc exit"

double chaos_unit(std::uint64_t salt, std::uint64_t seed,
                  std::uint64_t key_hash, int attempt) {
  std::uint64_t h = hash_combine(seed, salt);
  h = hash_combine(h, key_hash);
  h = hash_combine(h, static_cast<std::uint64_t>(attempt));
  return hash_unit(h);
}

}  // namespace

ChaosSpec parse_chaos_spec(const std::string& spec) {
  ChaosSpec out;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string pair = spec.substr(start, end - start);
    start = end + 1;
    if (pair.empty()) {
      continue;
    }
    const std::size_t colon = pair.find(':');
    HETERO_REQUIRE(colon != std::string::npos,
                   "HETERO_CHAOS: expected kind:probability, got '" + pair +
                       "'");
    const std::string kind = pair.substr(0, colon);
    const std::string prob = pair.substr(colon + 1);
    char* parse_end = nullptr;
    const double p = std::strtod(prob.c_str(), &parse_end);
    HETERO_REQUIRE(parse_end != nullptr && *parse_end == '\0' &&
                       !prob.empty() && p >= 0.0 && p <= 1.0,
                   "HETERO_CHAOS: probability must be in [0, 1], got '" +
                       prob + "'");
    if (kind == "crash") {
      out.crash_p = p;
    } else if (kind == "hang") {
      out.hang_p = p;
    } else if (kind == "exit") {
      out.exit_p = p;
    } else {
      HETERO_REQUIRE(false,
                     "HETERO_CHAOS: unknown kind '" + kind +
                         "' (expected crash, hang, or exit)");
    }
  }
  return out;
}

ChaosSpec chaos_spec_from_env() {
  const char* env = std::getenv("HETERO_CHAOS");
  if (env == nullptr) {
    return {};
  }
  return parse_chaos_spec(env);
}

std::uint64_t job_key_hash(const std::string& cache_key) {
  return support::record_checksum(cache_key, std::string());
}

ChaosAction chaos_decide(const ChaosSpec& spec, std::uint64_t seed,
                         std::uint64_t key_hash, int attempt) {
  if (spec.crash_p > 0.0 &&
      chaos_unit(kCrashSalt, seed, key_hash, attempt) < spec.crash_p) {
    return ChaosAction::kCrash;
  }
  if (spec.exit_p > 0.0 &&
      chaos_unit(kExitSalt, seed, key_hash, attempt) < spec.exit_p) {
    return ChaosAction::kExit;
  }
  if (spec.hang_p > 0.0 &&
      chaos_unit(kHangSalt, seed, key_hash, attempt) < spec.hang_p) {
    return ChaosAction::kHang;
  }
  return ChaosAction::kNone;
}

}  // namespace hetero::proc
