#pragma once

/// \file mid_run.hpp
/// The hook shape shared by a direct run's mid-run controllers:
/// resil::Recovery, rebroker::Controller and lb::LoadBalancer. Each is a
/// plain value with the same five hooks, which the runner's attempt loop
/// calls in that controller order:
///  * begin_attempt(attempt, platform, ranks), host-side, before an attempt;
///  * observe_step(Step) -> Verdict, on every rank after every step;
///  * on_stop(elapsed_s, checkpoint_step) -> optional<Move>, host-side
///    after a clean stop: the Move of the controller that stopped, nullopt
///    from the others;
///  * on_fault(Fault&), host-side after a fault;
///  * outcome(), the controller's ledger.
/// The seam, the replica rule and the retry rule are described in
/// docs/resilience.md ("Mid-run controllers").

#include <span>
#include <string>
#include <vector>

namespace hetero::midrun {

/// One completed step, identical on every rank.
struct Step {
  int index = 0;          ///< absolute step, counted over the whole run
  double seconds = 0.0;   ///< allreduced maximum over the ranks
  double cost_usd = 0.0;  ///< its dollars on the current platform
  /// Allgathered per-rank seconds; empty unless the balancer is on.
  std::span<const double> rank_seconds;
  bool last = false;  ///< the run's final step: nothing left to protect
};

enum class Action { kContinue, kCheckpoint, kStop };

/// What a controller asks for after a step. kCheckpoint writes a
/// collective checkpoint, marked on the trace as (name, category); kStop
/// writes one too and then ends the attempt cleanly.
struct Verdict {
  Action action = Action::kContinue;
  const char* name = "";
  const char* category = "";
};

/// What the attempt after a clean stop changes; empty fields keep theirs.
struct Move {
  std::vector<double> weights;  ///< per-rank capacity weights
  std::string platform;
  int ranks = 0;
};

/// The fault that killed an attempt. Recovery sees it first and decides
/// the retry; the controllers after it read that decision.
struct Fault {
  int step = 0;             ///< absolute step the fault fired at
  bool storm = false;       ///< a spot-reclaim storm, not a rank crash
  double dead_s = 0.0;      ///< the throwing rank's clock at the fault
  double dead_cost_usd = 0.0;
  int checkpoint_step = 0;  ///< steps the newest checkpoint holds
  int ranks = 0;            ///< rank count of the retry; recovery may shrink it
  bool retry = false;
  double retry_delay_s = 0.0;
};

}  // namespace hetero::midrun
