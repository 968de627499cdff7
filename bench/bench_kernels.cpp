// Host microbenchmarks of the direct-mode hot-path kernels: CSR SpMV,
// fused DistVector updates, fused element assembly, and the full RD
// per-iteration step. Every case runs the *same binary* in both kernel
// modes — the reference kernels (the executable specification) and the
// fast kernels — so the reported speedup is a like-for-like host-time
// ratio; the numerics are bit-identical either way (see docs/kernels.md).
//
// Unlike the virtual-clock phase timings of the figure benches, everything
// here is host time: the platform models charge mode-independent compute
// costs, so only a host-side measurement can see the overhaul. The process
// pins itself to the allowed CPU with the fewest device interrupts and
// reads the process CPU clock, and every repetition times one reference
// and one fast run back to back, in alternating order; a speedup is the
// median of those paired ratios, so a host slowdown cancels within its pair
// instead of landing on one side.
// FLOP/byte columns come from the obs kernel counters (la.kernel.*,
// fem.kernel.assembly.*).
//
// `--json out.jsonl` emits heterolab-bench-v1 records gated in CI against
// bench/baselines/kernels.json (the speedup floors).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/rd_solver.hpp"
#include "bench_main.hpp"
#include "fem/assembler.hpp"
#include "fem/fe_space.hpp"
#include "la/csr_matrix.hpp"
#include "la/kernels.hpp"
#include "la/system_builder.hpp"
#include "mesh/box_mesh.hpp"
#include "netsim/fabric.hpp"
#include "obs/metrics.hpp"
#include "simmpi/runtime.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using namespace hetero;

/// Medians of `reps` paired reference/fast timings of `body`, and the
/// median of the per-pair ref/fast ratios.
struct Paired {
  double ref_s = 0.0;
  double fast_s = 0.0;
  double speedup = 0.0;
};

/// Warms `body` once per kernel mode, then runs `reps` pairs, each one
/// reference and one fast run back to back (reference first in even pairs,
/// fast first in odd ones). `body` returns the seconds it measured.
template <class F>
Paired paired_modes(int reps, F&& body) {
  const la::KernelMode modes[2] = {la::KernelMode::kReference,
                                   la::KernelMode::kFast};
  for (const la::KernelMode mode : modes) {
    la::set_kernel_mode(mode);
    body();
  }
  std::vector<double> ref, fast, ratio;
  for (int r = 0; r < reps; ++r) {
    double t[2] = {0.0, 0.0};
    for (int k = 0; k < 2; ++k) {
      const int side = r % 2 == 0 ? k : 1 - k;
      la::set_kernel_mode(modes[side]);
      t[side] = body();
    }
    ref.push_back(t[0]);
    fast.push_back(t[1]);
    ratio.push_back(t[0] / t[1]);
  }
  return {bench::median(ref), bench::median(fast), bench::median(ratio)};
}

/// paired_modes over a body that measures nothing itself: each run is
/// timed on the process CPU clock.
template <class F>
Paired paired_cpu(int reps, F&& body) {
  return paired_modes(reps, [&] {
    const double t0 = bench::process_cpu_s();
    body();
    return bench::process_cpu_s() - t0;
  });
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_int(std::int64_t v) { return std::to_string(v); }

/// P2 mass+stiffness matrix of an n^3 box, assembled serially — the
/// realistic FEM sparsity the solver iterates on.
la::CsrMatrix make_fem_matrix(int cells, int order) {
  const auto mesh = mesh::build_box_mesh({cells, cells, cells});
  fem::FeSpace space(mesh, order,
                     static_cast<std::int64_t>(mesh.vertex_count()));
  fem::ElementKernel kernel(space, order == 2 ? 4 : 2);
  const int n = kernel.n();
  std::vector<double> me(static_cast<std::size_t>(n * n));
  std::vector<double> ke(static_cast<std::size_t>(n * n));
  std::vector<la::Triplet> triplets;
  triplets.reserve(mesh.tet_count() * static_cast<std::size_t>(n * n));
  for (std::size_t t = 0; t < mesh.tet_count(); ++t) {
    kernel.mass(t, me);
    kernel.stiffness(t, ke);
    const auto dofs = space.tet_dofs(t);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        triplets.push_back({dofs[i], dofs[j],
                            me[static_cast<std::size_t>(i * n + j)] +
                                ke[static_cast<std::size_t>(i * n + j)]});
      }
    }
  }
  const int rows = space.local_dof_count();
  return la::CsrMatrix::from_triplets(rows, rows, triplets);
}

void bench_spmv(bench::BenchOutput& out, const CliArgs& args) {
  const int cells = args.get_int32("spmv_cells", 10);
  const int iters = args.get_int32("spmv_iters", 40);
  const int reps = args.get_int32("reps", 5);
  const auto a = make_fem_matrix(cells, 2);
  const auto rows = static_cast<std::size_t>(a.rows());
  std::vector<double> x(rows), y(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    x[i] = 1.0 + 1e-3 * static_cast<double>(i % 17);
  }

  const Paired t = paired_cpu(reps, [&] {
    for (int i = 0; i < iters; ++i) {
      a.multiply(x, y);
    }
  });
  // One multiply's worth of modeled work (the counters are per call).
  la::set_kernel_mode(la::KernelMode::kFast);
  const double f0 = la::spmv_work().flops();
  const double b0 = la::spmv_work().bytes();
  a.multiply(x, y);
  const double flops = la::spmv_work().flops() - f0;
  const double bytes = la::spmv_work().bytes() - b0;
  const double ref_s = t.ref_s / iters;
  const double fast_s = t.fast_s / iters;

  // CSR is the only layout; the column stays because
  // bench/baselines/kernels.json matches its rows on it.
  Table table({"layout", "rows", "nnz", "ref[s]", "fast[s]", "speedup",
               "flops", "bytes", "intensity"});
  table.add_row({"csr", fmt_int(a.rows()),
                 fmt_int(static_cast<std::int64_t>(a.nonzeros())), fmt(ref_s),
                 fmt(fast_s), fmt(t.speedup), fmt(flops), fmt(bytes),
                 fmt(flops / bytes)});
  std::cout << "## SpMV (P2 mass+stiffness, " << cells << "^3 cells)\n";
  out.emit(table, "spmv");
  std::cout << "\n";
}

void bench_vec(bench::BenchOutput& out, const CliArgs& args) {
  const int n = args.get_int32("vec_n", 1 << 18);
  const int iters = args.get_int32("vec_iters", 40);
  const int reps = args.get_int32("reps", 5);

  Table table({"op", "n", "ref[s]", "fast[s]", "speedup"});
  auto runtime = std::make_shared<simmpi::Runtime>(netsim::Topology::uniform(
      1, 1, netsim::Fabric::shared_memory(), netsim::Fabric::shared_memory()));
  runtime->run([&](simmpi::Comm& comm) {
    std::vector<la::GlobalId> touched;
    touched.reserve(static_cast<std::size_t>(n));
    for (int g = 0; g < n; ++g) {
      touched.push_back(g);
    }
    la::DistSystemBuilder builder(comm, touched);
    builder.begin_assembly();
    for (int g = 0; g < n; ++g) {
      builder.add_matrix(g, g, 1.0);  // map() requires a finalized system
    }
    builder.finalize(comm);
    la::DistVector u(builder.map()), v(builder.map()), w(builder.map()),
        z(builder.map());
    for (int i = 0; i < n; ++i) {
      u[i] = 1.0 + 1e-6 * i;
      v[i] = 2.0 - 1e-6 * i;
      w[i] = 0.5 + 1e-7 * i;
    }

    auto row = [&](const char* op, auto&& body) {
      const Paired t = paired_cpu(reps, [&] {
        for (int i = 0; i < iters; ++i) {
          body();
        }
      });
      table.add_row({op, fmt_int(n), fmt(t.ref_s / iters),
                     fmt(t.fast_s / iters), fmt(t.speedup)});
    };

    double sink = 0.0;
    row("axpy_norm2", [&] { sink += z.axpy_norm2(comm, 0.5, u); });
    row("copy_axpy_norm2",
        [&] { sink += z.copy_axpy_norm2(comm, u, -0.25, v); });
    row("dot_pair", [&] {
      const auto [a, b] = u.dot_pair(comm, v, w);
      sink += a + b;
    });
    row("update_search_direction",
        [&] { z.update_search_direction(u, v, 0.3, 0.7); });
    row("cg_update_norm2",
        [&] { sink += la::cg_update_norm2(comm, z, 1e-3, u, w, v); });
    if (sink == 42.0) {  // defeat dead-code elimination of the sums
      std::cout << "";
    }
  });
  std::cout << "## Fused vector kernels\n";
  out.emit(table, "vec");
  std::cout << "\n";
}

/// The assembly rows time more and longer pairs than the other kernels:
/// each side of a pair runs enough sweeps that the reference side takes at
/// least 25 ms, over 15 pairs, so a host interruption lands inside a pair
/// and moves its ratio less.
void bench_assembly(bench::BenchOutput& out, const CliArgs& args) {
  constexpr int kPairs = 15;
  constexpr double kMinReferenceS = 0.025;
  const int cells = args.get_int32("assembly_cells", 6);
  auto& flops_c = obs::metrics().counter("fem.kernel.assembly.flops");
  auto& bytes_c = obs::metrics().counter("fem.kernel.assembly.bytes");

  Table table({"order", "tets", "sweeps", "ref[s]", "fast[s]", "speedup",
               "flops", "bytes"});
  for (const int order : {1, 2}) {
    const auto mesh = mesh::build_box_mesh({cells, cells, cells});
    fem::FeSpace space(mesh, order,
                       static_cast<std::int64_t>(mesh.vertex_count()));
    fem::ElementKernel kernel(space, order == 2 ? 4 : 2);
    const int n = kernel.n();
    std::vector<double> me(static_cast<std::size_t>(n * n));
    std::vector<double> ke(static_cast<std::size_t>(n * n));
    std::vector<double> fe(static_cast<std::size_t>(n));
    const fem::SpatialFn source = [](const mesh::Vec3&) { return -6.0; };
    auto sweep = [&] {
      for (std::size_t t = 0; t < mesh.tet_count(); ++t) {
        kernel.mass_stiffness_load(t, source, me, ke, fe);
      }
    };
    la::set_kernel_mode(la::KernelMode::kReference);
    const double t0 = bench::process_cpu_s();
    sweep();
    const int sweeps = std::max(
        1, static_cast<int>(
               std::ceil(kMinReferenceS / (bench::process_cpu_s() - t0))));
    // The fast mode's warm-up sweep builds its geometry cache.
    const Paired t = paired_cpu(kPairs, [&] {
      for (int k = 0; k < sweeps; ++k) {
        sweep();
      }
    });
    la::set_kernel_mode(la::KernelMode::kFast);
    const double f0 = flops_c.value();
    const double b0 = bytes_c.value();
    sweep();
    table.add_row({fmt_int(order),
                   fmt_int(static_cast<std::int64_t>(mesh.tet_count())),
                   fmt_int(sweeps), fmt(t.ref_s / sweeps),
                   fmt(t.fast_s / sweeps), fmt(t.speedup),
                   fmt(flops_c.value() - f0), fmt(bytes_c.value() - b0)});
  }
  std::cout << "## Element assembly (fused mass+stiffness+load sweep, "
            << cells << "^3 cells)\n";
  out.emit(table, "assembly");
  std::cout << "\n";
}

/// Full direct-mode RD per-iteration host time: assembly + Dirichlet +
/// ILU0 + CG, the paper's workhorse, at p ranks with `axis` cells per rank
/// axis: process CPU time of one step, the simulated ranks running as
/// fibers on the one host thread the pinned process has.
double rd_step_host_s(int ranks, int axis, int steps) {
  const int per_axis = static_cast<int>(std::lround(std::cbrt(ranks)));
  apps::RdConfig config;
  config.global_cells = axis * per_axis;
  config.order = 2;
  config.compute_errors = false;
  double elapsed = 0.0;
  auto runtime = std::make_shared<simmpi::Runtime>(netsim::Topology::uniform(
      ranks, 4, netsim::Fabric::infiniband_ddr_4x(),
      netsim::Fabric::shared_memory()));
  runtime->run([&](simmpi::Comm& comm) {
    apps::RdSolver solver(comm, config);
    comm.barrier();
    const double t0 = bench::process_cpu_s();
    solver.run(steps);
    comm.barrier();
    if (comm.rank() == 0) {
      elapsed = bench::process_cpu_s() - t0;
    }
  });
  return elapsed / steps;
}

void bench_rd_direct(bench::BenchOutput& out, const CliArgs& args) {
  const int ranks = args.get_int32("ranks", 27);
  const int axis = args.get_int32("axis", 6);
  const int steps = args.get_int32("steps", 6);
  const int reps = args.get_int32("rd_reps", 3);

  Table table({"ranks", "cells", "steps", "ref[s]", "fast[s]", "speedup"});
  for (const int p : {1, ranks}) {
    const Paired t =
        paired_modes(reps, [&] { return rd_step_host_s(p, axis, steps); });
    const int per_axis = static_cast<int>(std::lround(std::cbrt(p)));
    table.add_row({fmt_int(p), fmt_int(axis * per_axis), fmt_int(steps),
                   fmt(t.ref_s), fmt(t.fast_s), fmt(t.speedup)});
  }
  std::cout << "## RD direct per-iteration host time (P2, CG+ILU0, "
            << axis << " cells/rank-axis)\n";
  out.emit(table, "rd_direct");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetero;
  const CliArgs args(argc, argv);
  bench::BenchOutput out(args, "kernels");

  // Before any thread starts: simmpi's rank-fiber hosts inherit the mask.
  bench::pin_to_quietest_cpu();
  std::cout << "# Hot-path kernel microbenchmarks (process CPU time on one "
               "CPU, median of paired reference/fast runs)\n\n";
  bench_spmv(out, args);
  bench_vec(out, args);
  bench_assembly(out, args);
  bench_rd_direct(out, args);

  la::set_kernel_mode(la::KernelMode::kFast);
  return 0;
}
