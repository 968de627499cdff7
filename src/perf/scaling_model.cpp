#include "perf/scaling_model.hpp"

#include <algorithm>
#include <cmath>

#include "netsim/collectives.hpp"
#include "support/error.hpp"

namespace hetero::perf {

AppKind app_by_name(const std::string& name) {
  if (name == "rd") return AppKind::kReactionDiffusion;
  if (name == "ns") return AppKind::kNavierStokes;
  throw Error("unknown app '" + name + "' (expected rd|ns)");
}

ModelConfig rd_model() {
  ModelConfig c;
  c.app = AppKind::kReactionDiffusion;
  c.cells_per_rank_axis = 20;
  // BDF mass-dominated SPD systems: the iteration count barely grows with
  // the global mesh (lagrange's near-flat measured curve implies the same).
  c.base_solver_iterations = 60.0;
  c.iteration_exponent = 0.12;
  c.allreduces_per_iteration = 3.0;
  c.halo_exchanges_per_iteration = 1.0;
  return c;
}

ModelConfig ns_model() {
  ModelConfig c;
  c.app = AppKind::kNavierStokes;
  c.cells_per_rank_axis = 20;
  c.base_solver_iterations = 150.0;
  c.iteration_exponent = 0.12;
  // …but GMRES(MGS) performs sequential latency-bound dots every iteration.
  c.allreduces_per_iteration = 14.0;
  c.halo_exchanges_per_iteration = 1.0;
  return c;
}

apps::WorkCounts work_per_rank(const ModelConfig& config, int ranks) {
  HETERO_REQUIRE(ranks >= 1, "work_per_rank needs ranks >= 1");
  const auto n = static_cast<std::int64_t>(config.cells_per_rank_axis);
  apps::WorkCounts w;
  w.local_tets = 6 * n * n * n;
  if (config.app == AppKind::kReactionDiffusion) {
    // P2 scalar: ~8 dofs per cell (1 vertex + 7 edges), 10x10 element
    // matrices, ~27 nonzeros per row (measured on direct runs).
    w.local_rows = 8 * n * n * n;
    w.matrix_entries_assembled = w.local_tets * 10 * 10;
    w.local_nonzeros = 27 * w.local_rows;
  } else if (config.ns_velocity_order >= 2) {
    // Taylor-Hood P2/P1: 3 velocity components at ~8 dofs per cell plus
    // 1 pressure dof per vertex (~1 per cell) -> ~25 rows per cell;
    // 34-dof tet blocks (3 x 10 velocity + 4 pressure) and the wider P2
    // stencil push the row density to ~50 nonzeros.
    w.local_rows = 25 * n * n * n;
    w.matrix_entries_assembled = w.local_tets * 34 * 34;
    w.local_nonzeros = 50 * w.local_rows;
  } else {
    // P1 4-component blocks: 4 dofs per vertex (~1 vertex per cell),
    // (4x4)^2 element blocks, ~37 nonzeros per block row.
    w.local_rows = 4 * n * n * n;
    w.matrix_entries_assembled = w.local_tets * 16 * 16;
    w.local_nonzeros = 37 * w.local_rows;
  }
  w.halo_doubles = halo_dofs_per_rank(config, ranks);
  return w;
}

int typical_neighbours(int ranks) {
  if (ranks <= 1) {
    return 0;
  }
  const int k = static_cast<int>(std::round(std::cbrt(ranks)));
  if (k <= 1) {
    return 1;  // decomposition along fewer axes
  }
  return k == 2 ? 3 : 6;
}

std::int64_t halo_dofs_per_rank(const ModelConfig& config, int ranks) {
  const auto n = static_cast<std::int64_t>(config.cells_per_rank_axis);
  const int faces = typical_neighbours(ranks);
  if (faces == 0) {
    return 0;
  }
  // Dofs on one n x n cell interface: P2 carries vertices + in-face edges
  // (~4 n^2); the 4-component P1 system carries 4 (n+1)^2; Taylor-Hood
  // carries three P2 velocity components plus the P1 pressure trace.
  std::int64_t per_face;
  if (config.app == AppKind::kReactionDiffusion) {
    per_face = 4 * n * n;
  } else if (config.ns_velocity_order >= 2) {
    per_face = 3 * 4 * n * n + (n + 1) * (n + 1);
  } else {
    per_face = 4 * (n + 1) * (n + 1);
  }
  return faces * per_face;
}

void average_neighbour_split(int ranks, int ranks_per_node, double* on_node,
                             double* off_node) {
  HETERO_REQUIRE(ranks >= 1 && ranks_per_node >= 1,
                 "neighbour split needs positive counts");
  const int k = static_cast<int>(std::round(std::cbrt(ranks)));
  if (k * k * k != ranks || ranks == 1) {
    // Non-cubic fallback: the typical-neighbour heuristic with the x-axis
    // neighbours co-located when nodes hold more than one rank.
    const int total = typical_neighbours(ranks);
    const double on = ranks_per_node >= 2 ? std::min(total, 2) : 0;
    *on_node = on;
    *off_node = total - on;
    return;
  }
  // Exact count over the k^3 grid, ranks packed x-fastest and assigned to
  // nodes in consecutive blocks of m = ranks_per_node. Ranks r and
  // r + stride share a node iff r mod m < m - stride, and the ranks with a
  // neighbour at +stride form runs of (k - 1) * stride consecutive ranks,
  // one run every k * stride ranks. Each pair counts once per direction.
  const std::int64_t m = ranks_per_node;
  std::int64_t on = 0;
  for (std::int64_t stride = 1; stride < ranks; stride *= k) {
    const std::int64_t below = m - stride;
    if (below <= 0) {
      continue;
    }
    // Ranks in [0, n) with r mod m < below.
    const auto count = [&](std::int64_t n) {
      return n / m * below + std::min(n % m, below);
    };
    for (std::int64_t run = 0; run < ranks; run += k * stride) {
      on += 2 * (count(run + (k - 1) * stride) - count(run));
    }
  }
  const std::int64_t total = 6 * std::int64_t{k} * k * (k - 1);
  const double per_rank_total =
      static_cast<double>(total) / static_cast<double>(ranks);
  const double per_rank_on =
      static_cast<double>(on) / static_cast<double>(ranks);
  *on_node = per_rank_on;
  *off_node = per_rank_total - per_rank_on;
}

PhaseBreakdown project_iteration(const ModelConfig& config,
                                 const netsim::Topology& topo,
                                 const apps::CpuCostModel& cpu, int ranks) {
  HETERO_REQUIRE(topo.ranks() == ranks,
                 "topology rank count must match the projection");
  const apps::WorkCounts w = work_per_rank(config, ranks);
  PhaseBreakdown out;

  // --- communication building blocks ---------------------------------------
  // Exact average neighbour split over the decomposition: wiggles with the
  // alignment between the rank grid and the node width (the EC2 "certain
  // sizes" effect from §VII-A arises here naturally).
  double on_avg = 0.0;
  double off_avg = 0.0;
  average_neighbour_split(ranks, topo.ranks_per_node(), &on_avg, &off_avg);
  const int on_node = static_cast<int>(std::round(on_avg));
  const int off_node =
      std::max(typical_neighbours(ranks) - on_node, off_avg > 0.0 ? 1 : 0);
  const auto halo_bytes = static_cast<std::uint64_t>(w.halo_doubles) * 8;
  const double off_fraction =
      (on_avg + off_avg) > 0.0 ? off_avg / (on_avg + off_avg) : 0.0;
  const auto bytes_off =
      static_cast<std::uint64_t>(static_cast<double>(halo_bytes) *
                                 off_fraction);
  const std::uint64_t bytes_on = halo_bytes - bytes_off;
  const double halo_time =
      ranks == 1 ? 0.0
                 : topo.exchange_time(bytes_off, std::max(off_node, 0),
                                      bytes_on, std::max(on_node, 0));
  const double allreduce = netsim::allreduce_time(topo, 8);

  // --- assembly (step ii) ----------------------------------------------------
  const double entries = static_cast<double>(w.matrix_entries_assembled);
  out.assembly_s = cpu.scale(entries * cpu.assembly_sec_per_entry);
  if (ranks > 1) {
    // Off-process row contributions redistribute along the same interfaces;
    // roughly 10 shipped values per interface dof, plus the alltoallv
    // round-trip latency of the exchange pattern.
    out.assembly_s += topo.exchange_time(bytes_off * 10, std::max(off_node, 1),
                                         bytes_on * 10, std::max(on_node, 0));
    out.assembly_s += 2.0 * allreduce;  // structure/consistency checks
  }

  // --- preconditioner (step iiia) -------------------------------------------
  const double nnz = static_cast<double>(w.local_nonzeros);
  out.preconditioner_s = cpu.scale(nnz * cpu.ilu_sec_per_nnz);

  // --- solve (step iiib) ------------------------------------------------------
  out.solver_iterations =
      config.base_solver_iterations *
      std::pow(static_cast<double>(ranks), config.iteration_exponent);
  const double rows = static_cast<double>(w.local_rows);
  const double per_iter_compute = cpu.scale(
      nnz * (cpu.spmv_sec_per_nnz + cpu.trisolve_sec_per_nnz) +
      10.0 * rows * cpu.vec_sec_per_entry);
  const double per_iter_comm =
      config.halo_exchanges_per_iteration * halo_time +
      config.allreduces_per_iteration * allreduce;
  out.solve_s = out.solver_iterations * (per_iter_compute + per_iter_comm);

  out.total_s = out.assembly_s + out.preconditioner_s + out.solve_s;
  return out;
}

double skew_slowdown_unbalanced(std::span<const double> rank_factors) {
  HETERO_REQUIRE(!rank_factors.empty(),
                 "skew slowdown needs at least one rank factor");
  double worst = 0.0;
  for (const double f : rank_factors) {
    HETERO_REQUIRE(f > 0.0, "skew slowdown: rank factors must be positive");
    worst = std::max(worst, f);
  }
  return worst;
}

double skew_slowdown_balanced(std::span<const double> rank_factors) {
  HETERO_REQUIRE(!rank_factors.empty(),
                 "skew slowdown needs at least one rank factor");
  double inv_sum = 0.0;
  for (const double f : rank_factors) {
    HETERO_REQUIRE(f > 0.0, "skew slowdown: rank factors must be positive");
    inv_sum += 1.0 / f;
  }
  return static_cast<double>(rank_factors.size()) / inv_sum;
}

}  // namespace hetero::perf
