// Differential tests for the kernel overhaul. The golden fingerprints below
// were captured from the pre-overhaul build (the reference kernels, which
// are still compiled in as KernelMode::kReference): iteration counts,
// residuals, error norms, and solution norms printed at full %.17g
// precision. The overhaul's contract is that the fast kernels change *time*
// only, so both modes must still reproduce every digit.
//
// Also covered here: the 8-rank RD fingerprint and a table of faulted and
// rebalanced direct runs, each on one and on several simmpi host threads
// (ctest runs that suite as kernels_host_threads_test),
// persistent halo scratch buffers staying put across steps and across a
// checkpointed 27 -> 8 rank shrink, and the frozen assembly scatter +
// DirichletPlan pair producing the same eliminated system as the reference
// make_dirichlet/apply_dirichlet path.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/ns_solver.hpp"
#include "apps/rd_solver.hpp"
#include "core/experiment.hpp"
#include "fem/assembler.hpp"
#include "fem/bc.hpp"
#include "fem/fe_space.hpp"
#include "io/checkpoint.hpp"
#include "la/kernels.hpp"
#include "la/system_builder.hpp"
#include "mesh/box_mesh.hpp"
#include "netsim/fabric.hpp"
#include "simmpi/runtime.hpp"
#include "svc/result_codec.hpp"

namespace hetero {
namespace {

simmpi::Runtime make_runtime(int ranks) {
  return simmpi::Runtime(netsim::Topology::uniform(
      ranks, 4, netsim::Fabric::infiniband_ddr_4x(),
      netsim::Fabric::shared_memory()));
}

class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(la::KernelMode mode)
      : saved_(la::kernel_mode()) {
    la::set_kernel_mode(mode);
  }
  ~ScopedKernelMode() { la::set_kernel_mode(saved_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  la::KernelMode saved_;
};

/// Runs the RD solver and returns one fingerprint line per step, printed at
/// full double precision so any arithmetic drift fails the comparison.
/// `host_threads`, when given, receives the host threads the run used.
std::vector<std::string> rd_fingerprint(int ranks, int global_cells,
                                        int order, double dt, int steps,
                                        int* host_threads = nullptr) {
  std::vector<std::string> lines;
  auto rt = make_runtime(ranks);
  rt.run([&](simmpi::Comm& comm) {
    apps::RdConfig config;
    config.global_cells = global_cells;
    config.order = order;
    config.dt = dt;
    apps::RdSolver solver(comm, config);
    for (int s = 0; s < steps; ++s) {
      const auto r = solver.step();
      const double un = solver.solution().norm2(comm);
      if (comm.rank() == 0) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "RD ranks=%d cells=%d order=%d step=%d iters=%d "
                      "conv=%d residual=%.17g nodal=%.17g l2=%.17g "
                      "unorm=%.17g",
                      ranks, global_cells, order, s, r.solver_iterations,
                      static_cast<int>(r.solver_converged), r.residual,
                      r.nodal_error, r.l2_error, un);
        lines.emplace_back(buf);
      }
    }
  });
  if (host_threads != nullptr) {
    *host_threads = rt.host_threads();
  }
  return lines;
}

std::vector<std::string> ns_fingerprint(int ranks, int global_cells,
                                        int vorder, int steps) {
  std::vector<std::string> lines;
  auto rt = make_runtime(ranks);
  rt.run([&](simmpi::Comm& comm) {
    apps::NsConfig config;
    config.global_cells = global_cells;
    config.velocity_order = vorder;
    apps::NsSolver solver(comm, config);
    for (int s = 0; s < steps; ++s) {
      const auto r = solver.step();
      const double xn = solver.state().norm2(comm);
      if (comm.rank() == 0) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "NS ranks=%d cells=%d vorder=%d step=%d iters=%d "
                      "conv=%d residual=%.17g nodal=%.17g l2=%.17g "
                      "xnorm=%.17g",
                      ranks, global_cells, vorder, s, r.solver_iterations,
                      static_cast<int>(r.solver_converged), r.residual,
                      r.nodal_error, r.l2_error, xn);
        lines.emplace_back(buf);
      }
    }
  });
  return lines;
}

void expect_lines(const std::vector<std::string>& got,
                  const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "step " << i;
  }
}

// ---- golden fingerprints (captured from the seed build) -------------------

const std::vector<std::string> kRdSerial{
    "RD ranks=1 cells=4 order=2 step=0 iters=16 conv=1 "
    "residual=1.8592714872424313e-11 nodal=9.0523144535836764e-12 "
    "l2=1.5600936150586913e-12 unorm=39.562700329024182",
    "RD ranks=1 cells=4 order=2 step=1 iters=16 conv=1 "
    "residual=1.2413077366208457e-11 nodal=8.4350304518920893e-12 "
    "l2=1.4603498346213192e-12 unorm=47.082883036193088",
    "RD ranks=1 cells=4 order=2 step=2 iters=15 conv=1 "
    "residual=6.032653987688371e-11 nodal=3.8093528331728521e-11 "
    "l2=6.1488101530818658e-12 unorm=55.256994674424085"};

const std::vector<std::string> kRdEightRanks{
    "RD ranks=8 cells=4 order=2 step=0 iters=22 conv=1 "
    "residual=2.8773078530135858e-11 nodal=1.3544942945031835e-11 "
    "l2=2.4851417440466929e-12 unorm=39.562700329026754",
    "RD ranks=8 cells=4 order=2 step=1 iters=22 conv=1 "
    "residual=2.6137861633576999e-11 nodal=1.7548185127225224e-11 "
    "l2=3.1328004251552551e-12 unorm=47.08288303619711",
    "RD ranks=8 cells=4 order=2 step=2 iters=21 conv=1 "
    "residual=7.712607906503055e-11 nodal=4.9167780957759533e-11 "
    "l2=8.7515843916935806e-12 unorm=55.256994674424107"};

const std::vector<std::string> kRdP1{
    "RD ranks=8 cells=6 order=1 step=0 iters=15 conv=1 "
    "residual=1.6606771911143023e-11 nodal=5.872413666452303e-12 "
    "l2=0.015429033659441019 unorm=25.295341615046326",
    "RD ranks=8 cells=6 order=1 step=1 iters=15 conv=1 "
    "residual=1.1697690527405496e-11 nodal=5.5042082003353698e-12 "
    "l2=0.016933451907475937 unorm=27.76178082014189"};

const std::vector<std::string> kNsSerial{
    "NS ranks=1 cells=3 vorder=1 step=0 iters=11 conv=1 "
    "residual=3.427302961813413e-08 nodal=0.011286261515916336 "
    "l2=0.43455416940502517 xnorm=349.53310173945238",
    "NS ranks=1 cells=3 vorder=1 step=1 iters=11 conv=1 "
    "residual=9.1404597115550173e-10 nodal=0.025930793042775697 "
    "l2=0.43376983244220635 xnorm=346.20372448539706"};

const std::vector<std::string> kNsEightRanks{
    "NS ranks=8 cells=4 vorder=1 step=0 iters=18 conv=1 "
    "residual=1.0393830889817396e-07 nodal=0.02026646751909833 "
    "l2=0.24954694457247792 xnorm=658.77436797636562",
    "NS ranks=8 cells=4 vorder=1 step=1 iters=19 conv=1 "
    "residual=4.2557799205111596e-09 nodal=0.045980331598897695 "
    "l2=0.24900395887818072 xnorm=647.87206656625426"};

const std::vector<std::string> kNsP2{
    "NS ranks=1 cells=2 vorder=2 step=0 iters=10 conv=1 "
    "residual=1.3074157447893806e-07 nodal=0.0089538270307608081 "
    "l2=0.12287396751300722 xnorm=55.848223990815924"};

TEST(KernelGolden, RdFastModeReproducesSeedSerial) {
  ScopedKernelMode mode(la::KernelMode::kFast);
  expect_lines(rd_fingerprint(1, 4, 2, 0.1, 3), kRdSerial);
}

TEST(KernelGolden, RdFastModeReproducesSeedEightRanks) {
  ScopedKernelMode mode(la::KernelMode::kFast);
  expect_lines(rd_fingerprint(8, 4, 2, 0.1, 3), kRdEightRanks);
}

TEST(KernelGolden, RdFastModeReproducesSeedP1) {
  ScopedKernelMode mode(la::KernelMode::kFast);
  expect_lines(rd_fingerprint(8, 6, 1, 0.05, 2), kRdP1);
}

TEST(KernelGolden, NsFastModeReproducesSeedSerial) {
  ScopedKernelMode mode(la::KernelMode::kFast);
  expect_lines(ns_fingerprint(1, 3, 1, 2), kNsSerial);
}

TEST(KernelGolden, NsFastModeReproducesSeedEightRanks) {
  ScopedKernelMode mode(la::KernelMode::kFast);
  expect_lines(ns_fingerprint(8, 4, 1, 2), kNsEightRanks);
}

TEST(KernelGolden, NsFastModeReproducesSeedP2) {
  ScopedKernelMode mode(la::KernelMode::kFast);
  expect_lines(ns_fingerprint(1, 2, 2, 1), kNsP2);
}

TEST(KernelGolden, ReferenceModeReproducesSeedToo) {
  // The reference kernels ARE the seed implementations; a drift here means
  // the overhaul touched the specification path by accident.
  ScopedKernelMode mode(la::KernelMode::kReference);
  expect_lines(rd_fingerprint(1, 4, 2, 0.1, 3), kRdSerial);
  expect_lines(ns_fingerprint(1, 2, 2, 1), kNsP2);
}

// ---- host-thread count ------------------------------------------------------

/// Sets the calling thread's CPU affinity mask; restores the original on
/// scope exit.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& mask) {
    HETERO_CHECK(::sched_getaffinity(0, sizeof(saved_), &saved_) == 0);
    HETERO_CHECK(::sched_setaffinity(0, sizeof(mask), &mask) == 0);
  }
  ~ScopedAffinity() { ::sched_setaffinity(0, sizeof(saved_), &saved_); }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_;
};

/// A mask holding only the first CPU of `mask`.
cpu_set_t first_cpu_only(const cpu_set_t& mask) {
  int cpu = 0;
  while (!CPU_ISSET(cpu, &mask)) {
    ++cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return one;
}

// simmpi runs ranks as fibers on min(ranks, CPUs in the caller's affinity
// mask) host threads. How ranks share threads must not reach the numerics:
// all fibers on one thread and fibers spread over several threads both
// reproduce the golden 8-rank fingerprint bit for bit.
TEST(HostThreads, RdEightRanksMatchGoldenOnOneAndManyHostThreads) {
  cpu_set_t mask;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(mask), &mask), 0);
  const int cpus = CPU_COUNT(&mask);
  if (cpus < 2) {
    GTEST_SKIP() << "the affinity mask holds one CPU, so both runs would "
                    "use one host thread";
  }
  ScopedKernelMode mode(la::KernelMode::kFast);
  int pinned_threads = 0;
  std::vector<std::string> pinned;
  {
    ScopedAffinity pin(first_cpu_only(mask));
    pinned = rd_fingerprint(8, 4, 2, 0.1, 3, &pinned_threads);
  }
  int spread_threads = 0;
  const auto spread = rd_fingerprint(8, 4, 2, 0.1, 3, &spread_threads);
  EXPECT_EQ(pinned_threads, 1);
  EXPECT_EQ(spread_threads, std::min(8, cpus));
  expect_lines(pinned, kRdEightRanks);
  expect_lines(spread, kRdEightRanks);
}

// A fault kills an attempt while the other ranks may be anywhere in the
// step on other host threads. The dead attempt is charged the throwing
// rank's clock, and the host adopts the thrower's replica of the mid-run
// controllers, the only one sure to hold every step, checkpoint and
// observation before the fault. So the whole result is the same on one
// host thread and on many: a storm under re-brokering, rank crashes right
// after a checkpoint (seeds 2 and 8), a crash after a migration, and a
// rebalancing run. Each row is `heterolab run --app rd --ranks 8 --mode
// direct --cells 3 --steps 8` plus the row's flags; the runner seed is
// the CLI --seed.
TEST(HostThreads, FaultedAttemptWasteMatchesOnOneAndManyHostThreads) {
  cpu_set_t mask;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(mask), &mask), 0);
  if (CPU_COUNT(&mask) < 2) {
    GTEST_SKIP() << "the affinity mask holds one CPU, so every run would "
                    "use one host thread";
  }
  core::Experiment base;
  base.ranks = 8;
  base.mode = core::Mode::kDirect;
  base.cells_per_rank_axis = 3;
  base.direct_steps = 8;
  base.recovery.checkpoint_every = 2;
  struct Row {
    const char* flags;
    std::uint64_t seed;
    core::Experiment e;
  };
  std::vector<Row> rows;
  auto row = [&](const char* flags, std::uint64_t seed) -> core::Experiment& {
    rows.push_back({flags, seed, base});
    return rows.back().e;
  };
  {
    core::Experiment& e = row(
        "--platform ec2 --storm-rate 0.1 --recovery ckpt --rebroker puma", 2);
    e.platform = "ec2";
    e.faults.reclaim_storm_rate = 0.1;
    e.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
    e.rebroker.enabled = true;
  }
  for (const std::uint64_t seed : {2, 8}) {
    core::Experiment& e =
        row("--platform puma --faults 0.05 --recovery ckpt", seed);
    e.faults.rank_crash_rate = 0.05;
    e.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  }
  {
    core::Experiment& e = row(
        "--platform ec2 --rebroker puma --faults 0.04 --recovery ckpt", 1);
    e.platform = "ec2";
    e.faults.rank_crash_rate = 0.04;
    e.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
    e.rebroker.enabled = true;
  }
  {
    core::Experiment& e = row(
        "--platform puma --skew 4 --skew-fraction 0.25 --balance "
        "--balance-threshold 1.1",
        42);
    e.skew.slow_core_factor = 4.0;
    e.skew.slow_core_fraction = 0.25;
    e.balance.enabled = true;
    e.balance.threshold = 1.1;
  }

  for (const Row& r : rows) {
    auto run = [&] { return core::ExperimentRunner(r.seed).run(r.e); };
    core::ExperimentResult pinned;
    {
      ScopedAffinity pin(first_cpu_only(mask));
      pinned = run();
    }
    EXPECT_GT(pinned.resil.faults_injected + pinned.balance.rebalances, 0)
        << r.flags << ": nothing fired";
    const std::string bytes = svc::encode_result(pinned);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(svc::encode_result(run()), bytes)
          << r.flags << " --seed " << r.seed;
    }
  }
}

// ---- halo scratch reuse across steps and a 27 -> 8 rank shrink ------------

TEST(HaloPersistence, ScratchStableAcrossStepsAndRankShrink) {
  ScopedKernelMode mode(la::KernelMode::kFast);
  const std::string ckpt = "/tmp/heterolab_kernels_diff_shrink.h5l";
  // global_cells=6 divides both the 3^3 and the 2^3 cube decomposition.
  const int global_cells = 6;

  // Phase 1: 27 ranks. The halo scratch must reach steady state after the
  // first step — later steps may not regrow it.
  auto rt27 = make_runtime(27);
  rt27.run([&](simmpi::Comm& comm) {
    apps::RdConfig config;
    config.global_cells = global_cells;
    config.order = 2;
    apps::RdSolver solver(comm, config);
    auto r = solver.step();
    const std::size_t cap_after_first = solver.halo().scratch_capacity();
    EXPECT_GT(cap_after_first, 0u) << "rank " << comm.rank();
    r = solver.step();
    r = solver.step();
    EXPECT_EQ(solver.halo().scratch_capacity(), cap_after_first)
        << "halo scratch regrew on rank " << comm.rank();
    EXPECT_TRUE(r.solver_converged);
    EXPECT_LT(r.nodal_error, 1e-9);
    io::save_solver_checkpoint(comm, solver.solution(),
                               solver.previous_solution(),
                               solver.current_time(), solver.steps_taken(),
                               ckpt);
  });

  // Phase 2: a reclaim took hosts — restart the same global problem on 8
  // ranks from the checkpoint (gid-redistributed) and keep stepping. The
  // survivor decomposition's halo buffers must be steady as well, and the
  // exact-solution oracle certifies the continued trajectory.
  auto rt8 = make_runtime(8);
  rt8.run([&](simmpi::Comm& comm) {
    apps::RdConfig config;
    config.global_cells = global_cells;
    config.order = 2;
    apps::RdSolver solver(comm, config);
    la::DistVector u_now(solver.map());
    la::DistVector u_prev(solver.map());
    const io::SolverCheckpointMeta meta =
        io::load_solver_checkpoint(comm, u_now, u_prev, ckpt);
    EXPECT_EQ(meta.steps_done, 3);
    solver.restore_state(u_now, u_prev, meta.time);
    auto r = solver.step();
    const std::size_t cap_after_first = solver.halo().scratch_capacity();
    EXPECT_GT(cap_after_first, 0u) << "rank " << comm.rank();
    r = solver.step();
    EXPECT_EQ(solver.halo().scratch_capacity(), cap_after_first)
        << "halo scratch regrew after shrink on rank " << comm.rank();
    EXPECT_TRUE(r.solver_converged);
    // u = t^2 |x|^2 is in the P2/BDF2 space: the restarted trajectory on
    // the smaller assembly stays exact to solver tolerance.
    EXPECT_LT(r.nodal_error, 1e-9);
  });
  std::remove(ckpt.c_str());
}

// ---- frozen-scatter assembly + DirichletPlan vs the reference path --------

TEST(DirichletReassembly, PlanMatchesReferencePathBitwiseAcrossRefills) {
  auto rt = make_runtime(1);
  rt.run([&](simmpi::Comm& comm) {
    mesh::BoxMeshSpec spec{3, 3, 3};
    mesh::BlockDecomposition dec(spec, comm.size());
    const auto sub = mesh::build_box_submesh(spec, dec.box(comm.rank()));
    fem::FeSpace space(sub, 2, spec.vertex_count());
    fem::ElementKernel kernel(space, 4);
    const int n = kernel.n();

    // Element mass/stiffness integrals, computed once and fed verbatim to
    // both builders so the only difference under test is the scatter path
    // and the elimination path.
    std::vector<std::vector<double>> me_all, ke_all;
    std::vector<double> me(static_cast<std::size_t>(n * n));
    std::vector<double> ke(static_cast<std::size_t>(n * n));
    for (std::size_t t = 0; t < sub.tet_count(); ++t) {
      kernel.mass(t, me);
      kernel.stiffness(t, ke);
      me_all.push_back(me);
      ke_all.push_back(ke);
    }

    la::DistSystemBuilder ref_builder(comm, space.dof_gids());
    la::DistSystemBuilder fast_builder(comm, space.dof_gids());

    auto on_boundary = [](const mesh::Vec3& x) {
      const double eps = 1e-12;
      return x.x < eps || x.x > 1.0 - eps || x.y < eps ||
             x.y > 1.0 - eps || x.z < eps || x.z > 1.0 - eps;
    };

    // assemble A = mc*M + K with per-dof rhs = mc, into `builder`.
    std::vector<la::GlobalId> gids(static_cast<std::size_t>(n));
    std::vector<double> ae(static_cast<std::size_t>(n * n));
    std::vector<double> re(static_cast<std::size_t>(n));
    auto assemble = [&](la::DistSystemBuilder& builder, double mc) {
      builder.begin_assembly();
      for (std::size_t t = 0; t < sub.tet_count(); ++t) {
        for (int k = 0; k < n * n; ++k) {
          const auto l = static_cast<std::size_t>(k);
          ae[l] = mc * me_all[t][l] + ke_all[t][l];
        }
        for (int i = 0; i < n; ++i) {
          re[static_cast<std::size_t>(i)] = mc;
        }
        space.tet_dof_gids(t, gids);
        builder.add_dense_block(gids, gids, ae);
        builder.add_rhs_block(gids, re);
      }
      builder.finalize(comm);
    };

    // The plan freezes the constrained set (and the flags exchange) once —
    // after the first finalize, since map()/halo() need the frozen
    // structure; the reference path rebuilds everything per cycle.
    std::unique_ptr<fem::DirichletPlan> plan;

    // Two refill cycles with different coefficients and boundary data: the
    // second pass exercises the frozen scatter replay and the cached
    // elimination slot lists on the Dirichlet rows.
    for (int cycle = 0; cycle < 2; ++cycle) {
      const double mc = 1.0 + 0.5 * cycle;
      auto g = [&](const mesh::Vec3& x) {
        return mc * (x.x + 2.0 * x.y - x.z);
      };

      std::optional<la::DistVector> x_ref;
      {
        ScopedKernelMode m(la::KernelMode::kReference);
        assemble(ref_builder, mc);
        x_ref.emplace(ref_builder.map());
        const fem::DirichletData bc =
            fem::make_dirichlet(comm, space, ref_builder.map(),
                                ref_builder.halo(), on_boundary, g);
        fem::apply_dirichlet(ref_builder.matrix(), ref_builder.rhs(), *x_ref,
                             bc);
      }

      {
        ScopedKernelMode m(la::KernelMode::kFast);
        assemble(fast_builder, mc);
        if (!plan) {
          plan = std::make_unique<fem::DirichletPlan>(
              comm, space, fast_builder.map(), fast_builder.halo(),
              on_boundary);
          EXPECT_GT(plan->constrained_count(), 0u);
        }
      }
      la::DistVector x_fast(fast_builder.map());
      {
        ScopedKernelMode m(la::KernelMode::kFast);
        plan->update(comm, fast_builder.halo(), g);
        plan->apply(fast_builder.matrix(), fast_builder.rhs(), x_fast);
      }

      const auto& a_ref = ref_builder.matrix().local();
      const auto& a_fast = fast_builder.matrix().local();
      ASSERT_EQ(a_ref.nonzeros(), a_fast.nonzeros()) << "cycle " << cycle;
      for (std::int64_t k = 0; k < a_ref.nonzeros(); ++k) {
        const auto l = static_cast<std::size_t>(k);
        ASSERT_EQ(a_ref.values()[l], a_fast.values()[l])
            << "cycle " << cycle << " slot " << k;
      }
      const auto rhs_ref = ref_builder.rhs().owned();
      const auto rhs_fast = fast_builder.rhs().owned();
      for (int i = 0; i < ref_builder.map().owned_count(); ++i) {
        const auto l = static_cast<std::size_t>(i);
        ASSERT_EQ(rhs_ref[l], rhs_fast[l]) << "cycle " << cycle;
        ASSERT_EQ((*x_ref)[i], x_fast[i]) << "cycle " << cycle;
      }
    }
  });
}

}  // namespace
}  // namespace hetero
