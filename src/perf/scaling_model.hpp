#pragma once

/// \file scaling_model.hpp
/// Analytic weak-scaling performance model — the bridge from small direct
/// (thread-level) runs to the paper's 1000-process experiments.
///
/// The model composes per-iteration phase times from:
///   * per-rank work counts derived from the same cubic decomposition the
///     direct runs use (validated against them in tests);
///   * the platform's CPU rate model (apps::CpuCostModel), and
///   * netsim communication costs on the job's topology (halo exchanges,
///     allreduce latency, assembly redistribution).
///
/// Solver iterations grow with the *global* problem (weak scaling enlarges
/// the mesh): a one-level preconditioner gives roughly iters ~ p^e with
/// e ~ 1/3 for CG on the RD systems; the Navier–Stokes GMRES adds many
/// latency-bound reductions per iteration, which is what makes its curves
/// degrade everywhere — the paper's central qualitative finding.

#include <span>
#include <string>

#include "apps/app_common.hpp"
#include "netsim/topology.hpp"

namespace hetero::perf {

enum class AppKind { kReactionDiffusion, kNavierStokes };

/// Parses "rd" | "ns" (CLI spelling); throws hetero::Error.
AppKind app_by_name(const std::string& name);

/// Knobs of the projection; defaults reproduce the paper's setup.
struct ModelConfig {
  AppKind app = AppKind::kReactionDiffusion;
  /// Elements (cells) per axis held by one rank; the paper loads 20^3.
  int cells_per_rank_axis = 20;
  /// Krylov iterations at p = 1 (calibrate from a direct run).
  double base_solver_iterations = 12.0;
  /// iters(p) = base * p^iteration_exponent (weak-scaling growth).
  double iteration_exponent = 1.0 / 3.0;
  /// Latency-bound global reductions per Krylov iteration (CG ~ 3; GMRES
  /// with modified Gram-Schmidt ~ restart/2 sequential dots).
  double allreduces_per_iteration = 3.0;
  /// Halo exchanges per Krylov iteration (one per operator apply).
  double halo_exchanges_per_iteration = 1.0;
  /// Navier–Stokes velocity element order: 1 = the stabilized equal-order
  /// P1/P1 pair, 2 = the Taylor–Hood P2/P1 pair (quadratic velocity,
  /// linear pressure — inf-sup stable without stabilization, at ~6x the
  /// dofs and denser element blocks). Ignored by the RD model.
  int ns_velocity_order = 1;
};

/// Built-in configurations for the two applications.
ModelConfig rd_model();
ModelConfig ns_model();

/// Per-iteration phase times (the paper's Fig. 4/5 series).
struct PhaseBreakdown {
  double assembly_s = 0.0;
  double preconditioner_s = 0.0;
  double solve_s = 0.0;
  double total_s = 0.0;
  double solver_iterations = 0.0;
};

/// Analytic per-rank work for a p-rank weak-scaling run.
apps::WorkCounts work_per_rank(const ModelConfig& config, int ranks);

/// Number of face-neighbour ranks of a typical interior rank at p ranks.
int typical_neighbours(int ranks);

/// Average on-node / off-node split of face-neighbour pairs over all ranks
/// of the cubic decomposition, with `ranks_per_node` consecutive ranks
/// packed per node. Exact enumeration (cheap at p <= 1000): misalignment of
/// the rank grid with the node width produces the size-dependent wiggles
/// the paper observed on EC2 ("certain sizes where the performance
/// significantly deteriorates").
void average_neighbour_split(int ranks, int ranks_per_node, double* on_node,
                             double* off_node);

/// Doubles imported per halo exchange by an interior rank.
std::int64_t halo_dofs_per_rank(const ModelConfig& config, int ranks);

/// Projects one iteration (= one time step) of the application on the
/// given topology and CPU model.
PhaseBreakdown project_iteration(const ModelConfig& config,
                                 const netsim::Topology& topo,
                                 const apps::CpuCostModel& cpu, int ranks);

/// Modeled compute slowdown of a bulk-synchronous step when every rank
/// holds the *same* share of work but runs at per-rank compute-cost
/// multipliers `rank_factors` (resil::SkewPlan::mean_factor): the step
/// waits for the slowest rank, so the slowdown is max(factors).
double skew_slowdown_unbalanced(std::span<const double> rank_factors);

/// Modeled compute slowdown under *perfect* capacity-weighted balancing:
/// shares proportional to speed make every rank finish together, so p
/// ranks of speeds 1/f_r jointly run at the harmonic mean —
/// slowdown = p / sum(1 / f_r). Always <= the unbalanced slowdown; the
/// gap is what the load balancer can win back (docs/load_balancing.md).
double skew_slowdown_balanced(std::span<const double> rank_factors);

}  // namespace hetero::perf
