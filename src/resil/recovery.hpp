#pragma once

/// \file recovery.hpp
/// What to do when an injected fault fires. A RecoveryPolicy on Experiment
/// selects the strategy (give up, restart from scratch, or checkpoint-restart
/// every K steps — optionally on a smaller rank count, which the gid-keyed
/// checkpoint format already supports) and bounds the retries with a capped
/// exponential backoff whose delay is charged to simulated time-to-solution.
/// RecoveryStats is the ledger: how many attempts, how much work was wasted,
/// how much was saved by checkpoints, and what the detours cost in dollars.
/// Recovery is the mid-run controller a direct run drives with them.

#include <optional>
#include <string>

#include "support/error.hpp"
#include "support/mid_run.hpp"

namespace hetero::resil {

enum class RecoveryKind {
  kNone,              ///< First fault is fatal; the run reports failure.
  kRestartScratch,    ///< Rerun the whole job from step 0.
  kCheckpointRestart, ///< Checkpoint every K steps; resume from the last one.
};

const char* to_string(RecoveryKind kind);
/// Parses "none" | "scratch" | "ckpt" (CLI spelling); throws hetero::Error.
RecoveryKind recovery_kind_by_name(const std::string& name);

struct RecoveryPolicy {
  RecoveryKind kind = RecoveryKind::kNone;
  /// Checkpoint every K completed steps (kCheckpointRestart only).
  int checkpoint_every = 2;
  /// Faulted attempts (first try included) before reporting failure; the
  /// attempts a rebalance or migration starts do not count.
  int max_attempts = 5;
  /// Retry delay: min(cap, base * factor^retry), charged to simulated time.
  double backoff_base_s = 30.0;
  double backoff_factor = 2.0;
  double backoff_cap_s = 600.0;
  /// After a crash, restart on the next smaller cubic rank count (27 -> 8),
  /// modelling a shrunk assembly after a spot reclaim.
  bool shrink_ranks_on_crash = false;
};

/// Delay before retry number `retry` (zero-based), in simulated seconds.
double backoff_delay_s(const RecoveryPolicy& policy, int retry);

/// Per-experiment resilience ledger, surfaced as `resil.*` metrics.
struct RecoveryStats {
  int attempts = 1;            ///< Direct-run attempts; every fault,
                               ///< rebalance and migration starts one.
  int faults_injected = 0;     ///< Rank crashes that fired.
  int launch_retries = 0;      ///< Transient launch failures retried.
  int steps_wasted = 0;        ///< Solver steps whose work was thrown away.
  int steps_recovered = 0;     ///< Steps salvaged from checkpoints.
  int checkpoints_written = 0;
  double retry_delay_s = 0.0;  ///< Backoff charged to time-to-solution.
  double wasted_sim_s = 0.0;   ///< Simulated seconds burnt by dead attempts.
  double wasted_cost_usd = 0.0;///< Dollars burnt by dead attempts.
  bool recovered = false;      ///< At least one fault fired and was survived.
  int final_ranks = 0;         ///< Rank count of the successful attempt.
};

/// The recovery controller of a direct run (support/mid_run.hpp): asks for
/// a checkpoint every checkpoint_every steps, and after a fault books the
/// dead attempt, decides the retry and its backoff, and shrinks the
/// assembly. It counts its own retries: the faults, not the attempts, so
/// clean stops by the other controllers never spend the budget.
class Recovery {
 public:
  /// Throws hetero::Error for a checkpoint interval below 1 under ckpt.
  explicit Recovery(const RecoveryPolicy& policy);

  void begin_attempt(int attempt, const std::string&, int) {
    stats_.attempts = attempt + 1;
  }
  midrun::Verdict observe_step(const midrun::Step& step) const;
  std::optional<midrun::Move> on_stop(double, int) const {
    return std::nullopt;  // never stops a run
  }
  /// Retries until the faults reach max_attempts (never under kNone);
  /// retry n waits backoff_delay_s(policy, n).
  void on_fault(midrun::Fault& fault);
  /// checkpoints_written and final_ranks are the runner's to fill.
  const RecoveryStats& outcome() const { return stats_; }

 private:
  RecoveryPolicy policy_;
  RecoveryStats stats_;
};

/// Thrown inside a simmpi rank to simulate its host dying. Runtime::run
/// rethrows it on the launching thread after aborting the peers.
class InjectedFault : public Error {
 public:
  InjectedFault(int rank, int step, double now_s);
  int rank() const { return rank_; }
  int step() const { return step_; }
  /// The throwing rank's virtual clock: how long the attempt ran before it
  /// died. Unlike the peers' clocks at the abort, it does not depend on
  /// how far they got on other host threads.
  double now_s() const { return now_s_; }

 protected:
  InjectedFault(const std::string& message, int rank, int step, double now_s);

 private:
  int rank_;
  int step_;
  double now_s_;
};

/// A spot-reclaim storm taking the whole allocation at the start of `step`
/// (direct runs on spot-market platforms). rank() is -1: no single host
/// died, the market did — which is how the catch site tells a storm from a
/// rank crash. Runtime::run preserves the concrete type via exception_ptr.
class SpotReclaim : public InjectedFault {
 public:
  SpotReclaim(int step, double now_s);
};

}  // namespace hetero::resil
