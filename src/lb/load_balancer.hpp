#pragma once

/// \file load_balancer.hpp
/// The dynamic load-balancing control loop that makes the partitioners earn
/// their keep under per-rank speed skew (resil::SkewPlan). Modeled after
/// Solfec's domain-balancing design: measure per-rank step times, smooth
/// them (obs::DriftEstimator EWMAs, one per rank), and when the
/// max-over-mean imbalance crosses a threshold, emit new per-rank capacity
/// weights for a weighted repartition (partition_rcb/partition_greedy with
/// weights) — either in one jump ("repartition") or as bounded diffusive
/// transfers between rank-line neighbours ("diffuse", Cybenko-style).
///
/// Deterministic by construction: the state is a pure fold over the
/// observed per-rank step-time stream, which direct runs allgather so every
/// rank folds the *same* vector. A LoadBalancer is one of the three mid-run
/// controllers of a direct run (support/mid_run.hpp); docs/resilience.md
/// ("Mid-run controllers") states how the runner replicates it per rank and
/// adopts it back.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/drift.hpp"
#include "support/mid_run.hpp"

namespace hetero::lb {

/// When and how to rebalance. Default: disabled.
struct BalancePolicy {
  bool enabled = false;
  /// Trigger when max(smoothed rank time) / mean(smoothed rank time)
  /// exceeds this. Must stay above the natural imbalance of a calm run
  /// (block decompositions sit near 1.0) so zero-skew runs never trigger.
  double threshold = 1.25;
  /// Steps between imbalance checks.
  int check_every = 1;
  /// Observations per rank required before the first trigger (EWMA warm-up).
  int min_steps = 2;
  /// Rebalances allowed per run (bounds checkpoint/rebuild churn).
  int max_rebalances = 4;
  /// "repartition" jumps straight to speed-proportional weights;
  /// "diffuse" moves bounded weight between rank-line neighbours per
  /// rebalance and may need several rounds to converge.
  std::string mode = "repartition";
  /// Per-rank weight clamp, relative to the mean weight 1.0: keeps extreme
  /// measurements from starving a rank below one element.
  double min_weight = 0.25;
  double max_weight = 4.0;
  /// Diffusive step size: fraction of the pairwise weight gap moved per
  /// neighbour exchange (0 < eta <= 1).
  double diffusion_eta = 0.5;

  bool valid_mode() const {
    return mode == "repartition" || mode == "diffuse";
  }
};

/// What the balancer did, for the experiment ledger and the bench tables.
struct BalanceOutcome {
  int checks = 0;
  int rebalances = 0;
  /// Imbalance at the last check (1.0 until the first one).
  double last_imbalance = 1.0;
};

class LoadBalancer {
 public:
  /// A disabled policy keeps one rank's state whatever `ranks` is: a direct
  /// run copies its balancer to every rank each attempt.
  LoadBalancer(const BalancePolicy& policy, int ranks);

  bool enabled() const { return policy_.enabled && ranks_ > 1; }

  /// Folds the allgathered per-rank step seconds of step `step` into the
  /// EWMAs and returns true when a rebalance should fire now; a balancer
  /// that is not enabled() ignores them. Every rank must pass the identical
  /// vector (it is an allgather result), so every copy reaches the same
  /// verdict without communication.
  bool observe(int step, std::span<const double> rank_step_s);

  /// max(smoothed) / mean(smoothed) over ranks; 1.0 before observations.
  double imbalance() const;

  /// Commits a rebalance: folds the measured speeds into the current
  /// weights (full jump or one diffusion sweep, per policy.mode), clamps to
  /// [min_weight, max_weight], renormalizes to mean 1, and resets the
  /// EWMAs so post-rebalance measurements start fresh.
  void record_rebalance();

  /// Current per-rank capacity weights (mean 1.0); uniform until the first
  /// record_rebalance(). Feed to the weighted partitioners.
  const std::vector<double>& rank_weights() const { return weights_; }

  const BalanceOutcome& outcome() const { return outcome_; }

  // Mid-run controller hooks. The balance is keyed to the rank count it
  // was built for, so attempts and faults change nothing here.
  void begin_attempt(int, const std::string&, int) {}
  /// observe() on the step's allgathered times; a rebalance that fires
  /// before the last step asks for a checkpoint-and-stop.
  midrun::Verdict observe_step(const midrun::Step& step);
  /// After its own stop: record_rebalance(), and the new weights.
  std::optional<midrun::Move> on_stop(double elapsed_s, int checkpoint_step);
  void on_fault(const midrun::Fault&) {}

 private:
  std::vector<double> measured_speeds() const;

  BalancePolicy policy_;
  int ranks_ = 0;
  std::vector<obs::DriftEstimator> ewma_;
  std::vector<double> weights_;
  BalanceOutcome outcome_;
  bool rebalance_due_ = false;
};

}  // namespace hetero::lb
