#pragma once

/// \file experiment.hpp
/// The heterolab public API: describe an application run on a target
/// platform, and get back everything the paper measures — per-iteration
/// phase times, dollar cost, queue wait, provisioning effort, and whether
/// the platform could launch the job at all.
///
/// Two execution modes share the same platform/network models:
///   * kModeled — analytic projection (perf::project_iteration); instant,
///     used for the paper's full 1..1000-rank sweeps;
///   * kDirect  — actually runs the application through the simulated MPI
///     runtime (threads + virtual clocks); used at small scale for
///     validation and for the exact-solution oracles.

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/app_common.hpp"
#include "lb/load_balancer.hpp"
#include "perf/scaling_model.hpp"
#include "platform/platform_spec.hpp"
#include "rebroker/policy.hpp"
#include "resil/fault_plan.hpp"
#include "resil/recovery.hpp"
#include "resil/skew_plan.hpp"

namespace hetero::core {

enum class Mode { kModeled, kDirect };

struct Experiment {
  perf::AppKind app = perf::AppKind::kReactionDiffusion;
  std::string platform = "puma";
  int ranks = 1;
  /// Elements per axis per rank (weak scaling; the paper uses 20).
  int cells_per_rank_axis = 20;
  /// Velocity element order of the Navier–Stokes discretization: 1 = the
  /// stabilized equal-order P1/P1 pair, 2 = the Taylor–Hood P2/P1 pair
  /// (heavier blocks, more Krylov iterations — the grid benchmark's
  /// "element pair" axis). Must stay 1 for reaction–diffusion.
  int element_order = 1;
  Mode mode = Mode::kModeled;
  /// Direct mode: number of time steps to run (first steps are warm-up).
  int direct_steps = 3;

  // --- EC2-specific knobs ----------------------------------------------------
  /// Assemble from spot requests spread over several placement groups,
  /// topping up with on-demand hosts (the paper's "mix" configuration).
  bool ec2_spot_mix = false;
  int ec2_placement_groups = 1;
  /// Extra latency fraction for traffic crossing placement groups. The
  /// paper measured "no benefit" from a single group, i.e. a small value.
  double cross_group_penalty = 0.02;
  double ec2_spot_bid_usd = 1.20;

  // --- observability knobs ---------------------------------------------------
  /// Direct mode: write a Chrome trace_event JSON (one row per rank, virtual
  /// microseconds — loads in chrome://tracing / Perfetto). Empty = off.
  std::string trace_path;
  /// Write the global metrics registry as JSON after the run. Empty = off.
  std::string metrics_path;

  // --- resilience knobs ------------------------------------------------------
  /// Fault rates; all zero by default (nothing is injected). The concrete
  /// fault schedule is a pure function of (faults, seed), so runs replay
  /// byte-identically at any parallelism.
  resil::FaultSpec faults;
  /// What to do when a fault fires: give up, restart from scratch, or
  /// checkpoint-restart — with capped exponential backoff between attempts.
  resil::RecoveryPolicy recovery;

  // --- online re-brokering ---------------------------------------------------
  /// Closed-loop mid-run migration policy (direct mode only): sample live
  /// step times, re-price the remaining work, and migrate to the fallback
  /// platform when the deadline/cost verdict flips past the hysteresis
  /// margin. Disabled by default; see docs/rebrokering.md.
  rebroker::Policy rebroker;

  // --- intra-platform heterogeneity ------------------------------------------
  /// Per-rank speed skew (slow cores + noisy neighbors). Direct mode scales
  /// each rank's compute charges through the virtual clocks; modeled mode
  /// degrades the platform's uniform speed by the skew's unbalanced
  /// slowdown. All zero by default — runs are bit-identical to a skew-free
  /// build. See docs/load_balancing.md.
  resil::SkewSpec skew;
  /// Modeled mode only: project the skewed run under *perfect*
  /// capacity-weighted balancing (perf::skew_slowdown_balanced) instead of
  /// the bulk-synchronous worst-rank slowdown — the analytic counterpart
  /// of direct mode's `balance.enabled`. Requires skew to be enabled.
  bool skew_assume_balanced = false;
  /// Dynamic load balancing (direct mode only): allgather measured per-rank
  /// step times and repartition with capacity weights (or diffuse weight
  /// between neighbors) when the weighted imbalance crosses the threshold.
  lb::BalancePolicy balance;

  std::uint64_t seed = 42;
};

struct ExperimentResult {
  bool launched = false;
  std::string failure_reason;

  /// Time from submission to job start (queue / boot / setup).
  double queue_wait_s = 0.0;
  /// One-time porting effort for this platform (man-hours, §VI).
  double provisioning_hours = 0.0;

  /// Per-iteration phase times (the paper's figures 4/5).
  perf::PhaseBreakdown iteration;
  /// Nodes the job occupies.
  int hosts = 0;

  /// Dollar cost of one iteration at the real (billed) rate.
  double cost_per_iteration_usd = 0.0;
  /// EC2 mix: hypothetical all-spot estimate (Table II's "est. cost").
  double est_cost_per_iteration_usd = 0.0;

  /// Spot instances actually obtained (EC2 mix only).
  int spot_hosts = 0;

  apps::WorkCounts work_per_rank;

  // Direct mode extras: exact-solution oracles from the real run.
  double nodal_error = 0.0;
  bool solver_converged = true;

  /// Resilience ledger: attempts, wasted work, recovered steps, and what
  /// the faults cost in simulated time and dollars.
  resil::RecoveryStats resil;

  /// Re-brokering ledger: samples/decisions/migrations, storms endured, and
  /// the heterolab-rebroker-v1 decision trail. storms is filled even when
  /// the policy is disabled (a static plan still suffers the market).
  rebroker::Outcome rebroker;

  /// Load-balancing ledger: imbalance checks made, rebalances triggered,
  /// and the last weighted imbalance the balancer saw.
  lb::BalanceOutcome balance;
};

/// True when the run writes trace or metrics files. Those paths are output
/// sinks, not inputs: such a run executes in the calling process and is
/// never memoized, dispatched to a worker or shipped over the wire.
inline bool writes_output_files(const Experiment& e) {
  return !e.trace_path.empty() || !e.metrics_path.empty();
}

/// The one field list of Experiment: calls `v(field)` once per field that
/// decides the result. experiment_cache_key and the worker payload
/// (proc::encode/decode_experiment) walk it, so a field added to the struct
/// must be added here or it silently aliases memo entries. The order is
/// persisted: it is the memo stores' key text. trace_path and metrics_path
/// are absent (see writes_output_files).
template <class E, class V>
  requires std::same_as<std::remove_const_t<E>, Experiment>
void visit_fields(E& e, V&& v) {
  v(e.app);
  v(e.platform);
  v(e.ranks);
  v(e.cells_per_rank_axis);
  v(e.element_order);
  v(e.mode);
  v(e.direct_steps);
  v(e.ec2_spot_mix);
  v(e.ec2_placement_groups);
  v(e.cross_group_penalty);
  v(e.ec2_spot_bid_usd);
  v(e.faults.rank_crash_rate);
  v(e.faults.launch_failure_rate);
  v(e.faults.reclaim_storm_rate);
  v(e.faults.net_degrade_rate);
  v(e.faults.net_degrade_factor);
  v(e.faults.net_degrade_window_s);
  v(e.recovery.kind);
  v(e.recovery.checkpoint_every);
  v(e.recovery.max_attempts);
  v(e.recovery.backoff_base_s);
  v(e.recovery.backoff_factor);
  v(e.recovery.backoff_cap_s);
  v(e.recovery.shrink_ranks_on_crash);
  v(e.skew.slow_core_fraction);
  v(e.skew.slow_core_factor);
  v(e.skew.noise_rate);
  v(e.skew.noise_factor);
  v(e.skew.window_s);
  v(e.skew_assume_balanced);
  v(e.balance.enabled);
  v(e.balance.threshold);
  v(e.balance.check_every);
  v(e.balance.min_steps);
  v(e.balance.max_rebalances);
  v(e.balance.mode);
  v(e.balance.min_weight);
  v(e.balance.max_weight);
  v(e.balance.diffusion_eta);
  v(e.rebroker.enabled);
  v(e.rebroker.fallback_platform);
  v(e.rebroker.target_ranks);
  v(e.rebroker.hysteresis);
  v(e.rebroker.migrate_budget_usd);
  v(e.rebroker.sample_every);
  v(e.rebroker.deadline_s);
  v(e.rebroker.max_migrations);
  v(e.rebroker.run_label);
  v(e.seed);
}

/// The one field list of ExperimentResult, walked by the memo store's value
/// codec (svc::encode/decode_result) and so by every result that crosses a
/// process boundary. The order is persisted: it is the layout of the HMS1
/// `exp|` values (svc::kResultCodecVersion).
template <class R, class V>
  requires std::same_as<std::remove_const_t<R>, ExperimentResult>
void visit_fields(R& r, V&& v) {
  v(r.launched);
  v(r.failure_reason);
  v(r.queue_wait_s);
  v(r.provisioning_hours);
  v(r.iteration.assembly_s);
  v(r.iteration.preconditioner_s);
  v(r.iteration.solve_s);
  v(r.iteration.total_s);
  v(r.iteration.solver_iterations);
  v(r.hosts);
  v(r.cost_per_iteration_usd);
  v(r.est_cost_per_iteration_usd);
  v(r.spot_hosts);
  v(r.work_per_rank.local_tets);
  v(r.work_per_rank.local_rows);
  v(r.work_per_rank.local_nonzeros);
  v(r.work_per_rank.matrix_entries_assembled);
  v(r.work_per_rank.halo_doubles);
  v(r.work_per_rank.solver_iterations);
  v(r.nodal_error);
  v(r.solver_converged);
  v(r.resil.attempts);
  v(r.resil.faults_injected);
  v(r.resil.launch_retries);
  v(r.resil.steps_wasted);
  v(r.resil.steps_recovered);
  v(r.resil.checkpoints_written);
  v(r.resil.retry_delay_s);
  v(r.resil.wasted_sim_s);
  v(r.resil.wasted_cost_usd);
  v(r.resil.recovered);
  v(r.resil.final_ranks);
  v(r.rebroker.samples);
  v(r.rebroker.decisions);
  v(r.rebroker.migrations);
  v(r.rebroker.storms);
  v(r.rebroker.final_platform);
  v(r.rebroker.migration_wait_s);
  v(r.rebroker.migration_cost_usd);
  v(r.rebroker.trail);
  v(r.balance.checks);
  v(r.balance.rebalances);
  v(r.balance.last_imbalance);
}

class ExperimentRunner {
 public:
  explicit ExperimentRunner(std::uint64_t seed = 42);

  /// Runs one experiment; never throws for platform-capability failures
  /// (those come back as launched = false with the paper's reason).
  ExperimentResult run(const Experiment& experiment);

 private:
  ExperimentResult run_modeled(const Experiment& experiment,
                               const platform::PlatformSpec& spec);

  std::uint64_t seed_;
};

/// Per-rank mean compute-cost multipliers the modeled projection of this
/// experiment runs under (the resil::SkewPlan derived from the runner and
/// experiment seeds on the experiment's platform); all ones when skew is
/// disabled. Exposed so report generators (the grid benchmark) can publish
/// the skew imbalance a cell was modeled against.
std::vector<double> modeled_skew_factors(const Experiment& experiment,
                                         std::uint64_t runner_seed);

}  // namespace hetero::core
