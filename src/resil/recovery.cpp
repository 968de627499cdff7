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

Recovery::Recovery(const RecoveryPolicy& policy) : policy_(policy) {
  HETERO_REQUIRE(policy.kind != RecoveryKind::kCheckpointRestart ||
                     policy.checkpoint_every >= 1,
                 "recovery: checkpoint interval must be >= 1");
}

midrun::Verdict Recovery::observe_step(const midrun::Step& step) const {
  if (policy_.kind != RecoveryKind::kCheckpointRestart || step.last ||
      (step.index + 1) % policy_.checkpoint_every != 0) {
    return {};
  }
  return {midrun::Action::kCheckpoint, "checkpoint", "resil"};
}

void Recovery::on_fault(midrun::Fault& fault) {
  ++stats_.faults_injected;
  stats_.wasted_sim_s += fault.dead_s;
  stats_.wasted_cost_usd += fault.dead_cost_usd;
  stats_.steps_wasted += std::max(0, fault.step - fault.checkpoint_step);
  fault.retry = policy_.kind != RecoveryKind::kNone &&
                stats_.faults_injected < policy_.max_attempts;
  stats_.recovered = fault.retry;
  if (!fault.retry) return;
  fault.retry_delay_s = backoff_delay_s(policy_, stats_.faults_injected - 1);
  stats_.retry_delay_s += fault.retry_delay_s;
  stats_.steps_recovered += fault.checkpoint_step;
  const int axis = static_cast<int>(std::round(std::cbrt(fault.ranks)));
  if (policy_.shrink_ranks_on_crash && axis > 1) {
    // A reclaim took hosts: restart on the next smaller cube. The
    // checkpoint redistributes by gid, so the survivors pick up the lost
    // ranks' share.
    fault.ranks = (axis - 1) * (axis - 1) * (axis - 1);
  }
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
