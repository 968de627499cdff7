// Tests for the weak-scaling performance model, including its agreement
// with direct (thread-level) runs of the real applications.

#include <gtest/gtest.h>

#include "apps/rd_solver.hpp"
#include "netsim/fabric.hpp"
#include "perf/scaling_model.hpp"
#include "platform/platform_spec.hpp"
#include "simmpi/runtime.hpp"

namespace hetero::perf {
namespace {

TEST(WorkModel, NeighbourCounts) {
  EXPECT_EQ(typical_neighbours(1), 0);
  EXPECT_EQ(typical_neighbours(8), 3);
  EXPECT_EQ(typical_neighbours(27), 6);
  EXPECT_EQ(typical_neighbours(1000), 6);
}

TEST(WorkModel, HaloSaturatesAtInteriorRanks) {
  const ModelConfig rd = rd_model();
  EXPECT_EQ(halo_dofs_per_rank(rd, 1), 0);
  const auto h8 = halo_dofs_per_rank(rd, 8);
  const auto h27 = halo_dofs_per_rank(rd, 27);
  const auto h1000 = halo_dofs_per_rank(rd, 1000);
  EXPECT_GT(h8, 0);
  EXPECT_EQ(h27, 2 * h8);   // 6 faces vs 3
  EXPECT_EQ(h1000, h27);    // interior ranks everywhere beyond 27
}

TEST(WorkModel, CountsScaleWithCellsPerRank) {
  ModelConfig rd = rd_model();
  rd.cells_per_rank_axis = 10;
  const auto w10 = work_per_rank(rd, 27);
  rd.cells_per_rank_axis = 20;
  const auto w20 = work_per_rank(rd, 27);
  EXPECT_EQ(w20.local_tets, 8 * w10.local_tets);
  EXPECT_EQ(w20.local_rows, 8 * w10.local_rows);
  EXPECT_EQ(w20.matrix_entries_assembled, 8 * w10.matrix_entries_assembled);
}

TEST(WorkModel, MatchesDirectRunCounts) {
  // Run the real RD application at 8 ranks with 4^3 cells per rank and
  // compare the analytic per-rank counts. Boundary effects make the real
  // owned-dof counts slightly larger than the interior estimate.
  apps::WorkCounts measured;
  double avg_rows = 0.0;
  double avg_nnz = 0.0;
  simmpi::Runtime rt(platform::puma().topology(8));
  rt.run([&](simmpi::Comm& comm) {
    apps::RdConfig config;
    config.global_cells = 8;  // 4^3 cells per rank on 8 ranks
    config.compute_errors = false;
    apps::RdSolver solver(comm, config);
    const auto r = solver.step();
    // Ownership is min-rank-biased, so average the per-rank counts.
    const double rows = comm.allreduce(
        static_cast<double>(r.work.local_rows), simmpi::ReduceOp::kSum);
    const double nnz = comm.allreduce(
        static_cast<double>(r.work.local_nonzeros), simmpi::ReduceOp::kSum);
    if (comm.rank() == 0) {
      measured = r.work;
      avg_rows = rows / comm.size();
      avg_nnz = nnz / comm.size();
    }
  });
  ModelConfig rd = rd_model();
  rd.cells_per_rank_axis = 4;
  const auto modeled = work_per_rank(rd, 8);
  EXPECT_EQ(measured.local_tets, modeled.local_tets);
  EXPECT_EQ(measured.matrix_entries_assembled,
            modeled.matrix_entries_assembled);
  // Average rows / nonzeros per rank: the interior estimate is within the
  // boundary-effect band at this tiny size (surface/volume ~ 1/4).
  EXPECT_NEAR(avg_rows, static_cast<double>(modeled.local_rows),
              0.3 * static_cast<double>(modeled.local_rows));
  EXPECT_NEAR(avg_nnz, static_cast<double>(modeled.local_nonzeros),
              0.35 * static_cast<double>(modeled.local_nonzeros));
}

TEST(WorkModel, NeighbourSplitExactCases) {
  double on = 0.0;
  double off = 0.0;
  // p = 8, 2 ranks/node: every rank's single x-neighbour is its node mate.
  average_neighbour_split(8, 2, &on, &off);
  EXPECT_DOUBLE_EQ(on, 1.0);
  EXPECT_DOUBLE_EQ(off, 2.0);
  // One rank per node: everything is off-node.
  average_neighbour_split(27, 1, &on, &off);
  EXPECT_DOUBLE_EQ(on, 0.0);
  EXPECT_GT(off, 0.0);
  // Whole job on one node: everything is on-node.
  average_neighbour_split(8, 8, &on, &off);
  EXPECT_DOUBLE_EQ(off, 0.0);
  EXPECT_DOUBLE_EQ(on, 3.0);
  // Misalignment wiggles: k = 9 on 16-wide nodes has a different off-node
  // share than k = 8 (the EC2 "certain sizes" effect).
  double on8 = 0.0;
  double off8 = 0.0;
  double on9 = 0.0;
  double off9 = 0.0;
  average_neighbour_split(512, 16, &on8, &off8);
  average_neighbour_split(729, 16, &on9, &off9);
  EXPECT_NE(off8 / (on8 + off8), off9 / (on9 + off9));
}

TEST(WorkModel, NeighbourSplitEqualsTheEnumeration) {
  // Brute force over every face-neighbour pair of the k^3 grid (ranks
  // x-fastest, nodes of consecutive ranks): the counted split must give
  // the same quotients bit for bit.
  for (int k = 2; k <= 10; ++k) {
    const int ranks = k * k * k;
    const int offsets[3] = {1, k, k * k};
    for (int per_node = 1; per_node <= 64; ++per_node) {
      std::int64_t on = 0;
      std::int64_t total = 0;
      for (int r = 0; r < ranks; ++r) {
        const int coords[3] = {r % k, r / k % k, r / (k * k)};
        for (int axis = 0; axis < 3; ++axis) {
          for (const int dir : {-1, 1}) {
            const int c = coords[axis] + dir;
            if (c < 0 || c >= k) {
              continue;
            }
            ++total;
            on += r / per_node == (r + dir * offsets[axis]) / per_node;
          }
        }
      }
      const double want_on =
          static_cast<double>(on) / static_cast<double>(ranks);
      const double want_off =
          static_cast<double>(total) / static_cast<double>(ranks) - want_on;
      double got_on = -1.0;
      double got_off = -1.0;
      average_neighbour_split(ranks, per_node, &got_on, &got_off);
      EXPECT_EQ(got_on, want_on) << "k=" << k << " per_node=" << per_node;
      EXPECT_EQ(got_off, want_off) << "k=" << k << " per_node=" << per_node;
    }
  }
}

TEST(WorkModel, HaloTrafficMatchesTheDirectRun) {
  // The model's per-exchange halo volume must agree with the bytes the real
  // halo plan moves: measured import size vs modeled halo dofs, same size.
  std::int64_t measured = 0;
  simmpi::Runtime rt(platform::puma().topology(27));
  rt.run([&](simmpi::Comm& comm) {
    apps::RdConfig config;
    config.global_cells = 9;  // 3^3 cells per rank on 27 ranks
    config.compute_errors = false;
    apps::RdSolver solver(comm, config);
    const auto r = solver.step();
    // The centre rank of the 3x3x3 decomposition is fully interior.
    const auto centre = comm.allreduce(
        comm.rank() == 13 ? r.work.halo_doubles : std::int64_t{0},
        simmpi::ReduceOp::kMax);
    if (comm.rank() == 0) {
      measured = centre;
    }
  });
  ModelConfig rd = rd_model();
  rd.cells_per_rank_axis = 3;
  const auto modeled = halo_dofs_per_rank(rd, 27);
  // The face model is a lower bound: the real ghost set adds block-edge and
  // corner dofs, an O(1/n) surplus that is large at n = 3 (here ~1.8x) and
  // shrinks to a few percent at the paper's n = 20.
  EXPECT_GT(measured, 0);
  const double ratio =
      static_cast<double>(measured) / static_cast<double>(modeled);
  EXPECT_GE(ratio, 1.0);
  EXPECT_LE(ratio, 2.2);
}

TEST(Projection, PhasesSumToTotal) {
  const ModelConfig rd = rd_model();
  for (int p : {1, 27, 512}) {
    const auto topo = platform::ec2().topology(p);
    const auto b = project_iteration(rd, topo, platform::ec2().cpu_model(), p);
    EXPECT_NEAR(b.total_s, b.assembly_s + b.preconditioner_s + b.solve_s,
                1e-12);
    EXPECT_GT(b.assembly_s, 0.0);
    EXPECT_GT(b.preconditioner_s, 0.0);
    EXPECT_GT(b.solve_s, 0.0);
  }
}

TEST(Projection, LagrangeStaysNearlyFlatWhereEthernetDegrades) {
  const ModelConfig rd = rd_model();
  auto total = [&](const platform::PlatformSpec& spec, int p) {
    return project_iteration(rd, spec.topology(p), spec.cpu_model(), p)
        .total_s;
  };
  // Weak-scaling degradation factor from 1 to 343 ranks.
  const double lagrange_deg =
      total(platform::lagrange(), 343) / total(platform::lagrange(), 1);
  const double ellipse_deg =
      total(platform::ellipse(), 343) / total(platform::ellipse(), 1);
  EXPECT_LT(lagrange_deg, 2.0);         // "good weak scaling"
  EXPECT_GT(ellipse_deg, 2.0);          // 1GbE falls over
  EXPECT_GT(ellipse_deg, 1.5 * lagrange_deg);
}

TEST(Projection, Ec2DegradesLessThanGigabitAtEqualScale) {
  const ModelConfig rd = rd_model();
  auto total = [&](const platform::PlatformSpec& spec, int p) {
    return project_iteration(rd, spec.topology(p), spec.cpu_model(), p)
        .total_s;
  };
  // §VII-A: 16-core instances mean fewer hosts and less wire traffic.
  const double ec2_deg = total(platform::ec2(), 512) / total(platform::ec2(), 1);
  const double ellipse_deg =
      total(platform::ellipse(), 512) / total(platform::ellipse(), 1);
  EXPECT_LT(ec2_deg, ellipse_deg);
}

TEST(Projection, FlatUpTo125ThenDegrades) {
  // "The problem scales well for all targets in the range 1-125."
  const ModelConfig rd = rd_model();
  for (const auto* spec : platform::all_platforms()) {
    const double t1 = project_iteration(rd, spec->topology(1),
                                        spec->cpu_model(), 1)
                          .total_s;
    const double t125 = project_iteration(rd, spec->topology(125),
                                          spec->cpu_model(), 125)
                            .total_s;
    // "Reasonably steady": within ~2x of the single-rank time (the 1GbE
    // platforms sit right at the shoulder of their degradation curve).
    EXPECT_LT(t125 / t1, 2.2) << spec->name << " should be steady to 125";
  }
}

TEST(Projection, NsIsMoreCommunicationBoundThanRd) {
  const ModelConfig rd = rd_model();
  const ModelConfig ns = ns_model();
  auto degradation = [&](const ModelConfig& m) {
    const auto& spec = platform::ellipse();
    const double t1 =
        project_iteration(m, spec.topology(1), spec.cpu_model(), 1).total_s;
    const double t343 =
        project_iteration(m, spec.topology(343), spec.cpu_model(), 343)
            .total_s;
    return t343 / t1;
  };
  EXPECT_GT(degradation(ns), degradation(rd));
}

TEST(Projection, SolverIterationsGrowSlowly) {
  const ModelConfig rd = rd_model();
  const auto topo1 = platform::ec2().topology(1);
  const auto topo1000 = platform::ec2().topology(1000);
  const auto b1 =
      project_iteration(rd, topo1, platform::ec2().cpu_model(), 1);
  const auto b1000 =
      project_iteration(rd, topo1000, platform::ec2().cpu_model(), 1000);
  EXPECT_GT(b1000.solver_iterations, b1.solver_iterations);
  EXPECT_LT(b1000.solver_iterations, 4.0 * b1.solver_iterations);
}

TEST(Projection, MatchesDirectRunMagnitudeAtSmallScale) {
  // The direct run (real application through the simulated MPI) and the
  // analytic projection must agree on the compute-dominated phases at a
  // small, boundary-affected size — within a factor allowing for boundary
  // effects and the coarser comm model.
  double direct_assembly = 0.0;
  double direct_total = 0.0;
  simmpi::Runtime rt(platform::puma().topology(8));
  rt.run([&](simmpi::Comm& comm) {
    apps::RdConfig config;
    config.global_cells = 8;
    config.compute_errors = false;
    config.cpu = platform::puma().cpu_model();
    apps::RdSolver solver(comm, config);
    solver.step();  // structure warm-up
    const auto r = solver.step();
    if (comm.rank() == 0) {
      direct_assembly = r.timing.assembly_s;
      direct_total = r.timing.total_s;
    }
  });
  ModelConfig rd = rd_model();
  rd.cells_per_rank_axis = 4;
  // The direct run's CG converged in far fewer iterations at this tiny
  // size; compare per-phase compute instead of the iteration-count model.
  const auto modeled = project_iteration(rd, platform::puma().topology(8),
                                         platform::puma().cpu_model(), 8);
  EXPECT_GT(direct_assembly, 0.3 * modeled.assembly_s);
  EXPECT_LT(direct_assembly, 3.0 * modeled.assembly_s);
  EXPECT_GT(direct_total, 0.0);
}

}  // namespace
}  // namespace hetero::perf
