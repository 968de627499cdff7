#include "resil/recovery.hpp"

#include <algorithm>
#include <cmath>

namespace hetero::resil {

const char* to_string(RecoveryKind kind) {
  switch (kind) {
    case RecoveryKind::kNone:
      return "none";
    case RecoveryKind::kRestartScratch:
      return "scratch";
    case RecoveryKind::kCheckpointRestart:
      return "ckpt";
  }
  return "?";
}

RecoveryKind recovery_kind_by_name(const std::string& name) {
  if (name == "none") return RecoveryKind::kNone;
  if (name == "scratch") return RecoveryKind::kRestartScratch;
  if (name == "ckpt") return RecoveryKind::kCheckpointRestart;
  throw Error("unknown recovery policy '" + name +
              "' (expected none|scratch|ckpt)");
}

double backoff_delay_s(const RecoveryPolicy& policy, int retry) {
  HETERO_REQUIRE(retry >= 0, "backoff: retry index must be non-negative");
  const double delay =
      policy.backoff_base_s * std::pow(policy.backoff_factor, retry);
  return std::min(policy.backoff_cap_s, delay);
}

InjectedFault::InjectedFault(int rank, int step, double now_s)
    : InjectedFault("injected fault: rank " + std::to_string(rank) +
                        " crashed at step " + std::to_string(step),
                    rank, step, now_s) {}

InjectedFault::InjectedFault(const std::string& message, int rank, int step,
                             double now_s)
    : Error(message), rank_(rank), step_(step), now_s_(now_s) {}

SpotReclaim::SpotReclaim(int step, double now_s)
    : InjectedFault("spot reclaim: storm took the allocation at step " +
                        std::to_string(step),
                    -1, step, now_s) {}

}  // namespace hetero::resil
