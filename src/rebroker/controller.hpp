#pragma once

/// \file controller.hpp
/// The closed-loop re-brokering controller. One Controller follows a direct
/// run through its attempt loop: at every completed step it folds the
/// allreduced step time into an obs::DriftEstimator, re-prices the remaining
/// work on the current platform and on the policy's fallback, and applies
/// the deadline/cost verdict with hysteresis. When the verdict flips, the
/// host checkpoints through `io` and resumes on the fallback via the
/// gid-keyed redistribution machinery; the controller records every sample,
/// decision, storm, and migration as a `heterolab-rebroker-v1` JSONL line.
///
/// A Controller is one of the three mid-run controllers of a direct run
/// (support/mid_run.hpp); docs/resilience.md ("Mid-run controllers") states
/// how the runner replicates it per rank and adopts it back. All pricing
/// inputs are coordinate-hashed, so replays from the same seed are
/// byte-identical at any `--jobs` level.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/drift.hpp"
#include "obs/json.hpp"
#include "rebroker/policy.hpp"
#include "rebroker/quote.hpp"
#include "support/mid_run.hpp"

namespace hetero::rebroker {

/// Everything the verdict depends on, gathered in one place so tests can
/// replay canned drift traces against advise() directly.
struct AdviseInputs {
  int steps_total = 0;
  int steps_done = 0;
  /// Virtual seconds since the job first started running (backoffs and
  /// migration waits included, initial queue wait excluded).
  double elapsed_s = 0.0;
  double spent_usd = 0.0;
  /// Live smoothed per-step seconds; 0 = trust the model.
  double observed_step_s = 0.0;
  /// Estimated spot-reclaim probability per step on the *current* platform.
  double storm_rate = 0.0;
  int storms_seen = 0;
  /// Expected retry backoff charged per storm.
  double backoff_expect_s = 0.0;
  /// Steps redone per storm (work since the last checkpoint, on average).
  int redo_steps_per_storm = 0;
  PlatformQuote stay;
  PlatformQuote move;
  double hysteresis = 0.0;
  double deadline_s = 0.0;      ///< 0 = none
  double migrate_budget_usd = 0.0;  ///< 0 = unlimited
};

/// The verdict plus the projections it was based on (recorded in the trail).
struct Advice {
  bool migrate = false;
  double stay_finish_s = 0.0;
  double move_finish_s = 0.0;
  double stay_cost_usd = 0.0;
  double move_cost_usd = 0.0;
  std::string reason;
};

/// Pure verdict function. Projects finish time and total spend for staying
/// vs migrating, then decides:
///  * fallback that cannot launch, or whose remaining spend exceeds the
///    migration budget, is never chosen;
///  * with a deadline: the side that meets it wins; when both (or neither)
///    meet it, the cheaper side wins;
///  * "cheaper" must clear the hysteresis margin — migrate only when
///    move_cost * (1 + hysteresis) < stay_cost.
Advice advise(const AdviseInputs& inputs);

class Controller {
 public:
  /// `seed` drives the quotes and the fallback submissions.
  /// `backoff_expect_s` and `redo_steps_per_storm` fold the recovery
  /// policy's storm economics into the stay-side projection; the runner
  /// derives them from RecoveryPolicy (first backoff delay, half the
  /// checkpoint interval). Throws hetero::Error for a bad enabled policy.
  Controller(const Policy& policy, perf::AppKind app, int cells_per_rank_axis,
             int steps_total, std::uint64_t seed, double backoff_expect_s,
             int redo_steps_per_storm);

  /// Host-side: (re-)prices stay and move for the attempt about to run on
  /// `platform` and resets the per-attempt drift fold.
  void begin_attempt(int attempt, const std::string& platform, int ranks);

  /// Rank-side: folds the step's allreduced seconds and dollars, and asks
  /// for a checkpoint-and-stop when the verdict says migrate. Identical on
  /// every rank by construction.
  midrun::Verdict observe_step(const midrun::Step& step);

  /// Host-side, after the attempt that asked to migrate: submits the job to
  /// the fallback on a hashed stream, charges the attempt to the job clock,
  /// and returns the new platform and ranks; an empty Move when the
  /// fallback refused (which suppresses further migrations).
  std::optional<midrun::Move> on_stop(double elapsed_s, int checkpoint_step);

  /// Host-side: charges the dead attempt and its backoff to the job clock,
  /// and counts a storm (even while disabled, so the outcome still reports
  /// what the market did).
  void on_fault(const midrun::Fault& fault);

  const Outcome& outcome() const { return outcome_; }

  /// The run's per-iteration dollars. A migrated run blends the per-step
  /// dollars each platform billed (each step on the platform it last ran
  /// on); otherwise `single_platform_usd` stands, so an adaptive run that
  /// never moves prices identically to a static one.
  double cost_per_iteration_usd(double single_platform_usd) const;

 private:
  void append_record(const std::string& line) { outcome_.trail.push_back(line); }
  AdviseInputs make_inputs(int steps_done) const;
  /// A trail record of `type` stamped with the run, attempt, platform,
  /// ranks, step and virtual time.
  obs::Json step_record(const char* type, int step,
                        double virtual_time_s) const;
  /// Virtual clock / spend including the attempt in flight.
  double elapsed_s() const { return elapsed_base_s_ + elapsed_attempt_s_; }
  double spent_usd() const { return spent_base_usd_ + spent_attempt_usd_; }
  void record_storm(int step, double virtual_time_s);
  void record_migration(int checkpoint_step, const std::string& to_platform,
                        double queue_wait_s);
  void record_migration_failed(const std::string& reason);
  /// Adds an attempt's virtual seconds, billed on the current platform.
  void charge(double seconds);

  Policy policy_;
  perf::AppKind app_ = perf::AppKind::kReactionDiffusion;
  int cells_ = 0;
  int steps_total_ = 0;
  std::uint64_t seed_ = 0;
  double backoff_expect_s_ = 0.0;
  int redo_steps_per_storm_ = 0;

  int attempt_ = 0;
  std::string platform_;
  int ranks_ = 0;
  double elapsed_base_s_ = 0.0;
  double spent_base_usd_ = 0.0;
  double elapsed_attempt_s_ = 0.0;
  double spent_attempt_usd_ = 0.0;
  int steps_observed_ = 0;  ///< over all attempts, dead ones included
  bool migration_suppressed_ = false;
  bool migration_due_ = false;
  std::vector<double> step_cost_usd_;  ///< sized only when enabled
  obs::DriftEstimator drift_;
  PlatformQuote stay_;
  PlatformQuote move_;
  Outcome outcome_;
};

}  // namespace hetero::rebroker
