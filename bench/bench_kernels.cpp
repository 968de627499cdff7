// Host microbenchmarks of the direct-mode hot-path kernels: CSR SpMV,
// fused DistVector updates, fused element assembly, and the full RD
// per-iteration step. Every case runs the *same binary* twice — once with
// the reference kernels (the executable specification) and once with the
// fast kernels — so the reported speedup is a like-for-like host-time
// ratio; the numerics are bit-identical either way (see docs/kernels.md).
//
// Unlike the virtual-clock phase timings of the figure benches, everything
// here is host wall time: the platform models charge mode-independent
// compute costs, so only a host-side measurement can see the overhaul.
// FLOP/byte columns come from the obs kernel counters (la.kernel.*,
// fem.kernel.assembly.*).
//
// `--json out.jsonl` emits heterolab-bench-v1 records gated in CI against
// bench/baselines/kernels.json (the rd_direct speedup floor).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
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

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best (minimum) wall time of `reps` invocations of `body`.
template <class F>
double best_of(int reps, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_s();
    body();
    best = std::min(best, wall_s() - t0);
  }
  return best;
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
  const int cells = static_cast<int>(args.get_int("spmv_cells", 10));
  const int iters = static_cast<int>(args.get_int("spmv_iters", 40));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const auto a = make_fem_matrix(cells, 2);
  const auto rows = static_cast<std::size_t>(a.rows());
  std::vector<double> x(rows), y(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    x[i] = 1.0 + 1e-3 * static_cast<double>(i % 17);
  }

  auto run = [&](la::KernelMode mode) {
    la::set_kernel_mode(mode);
    a.multiply(x, y);  // warm
    return best_of(reps, [&] {
             for (int i = 0; i < iters; ++i) {
               a.multiply(x, y);
             }
           }) /
           iters;
  };
  const double ref_s = run(la::KernelMode::kReference);
  const double f0 = la::spmv_work().flops();
  const double b0 = la::spmv_work().bytes();
  const double fast_s = run(la::KernelMode::kFast);
  // One multiply's worth of modeled work (counters are per-call).
  const double calls = static_cast<double>((reps + 1) * iters + 1);
  const double flops = (la::spmv_work().flops() - f0) / calls;
  const double bytes = (la::spmv_work().bytes() - b0) / calls;

  // CSR is the only layout; the column stays because
  // bench/baselines/kernels.json matches its rows on it.
  Table table({"layout", "rows", "nnz", "ref[s]", "fast[s]", "speedup",
               "flops", "bytes", "intensity"});
  table.add_row({"csr", fmt_int(a.rows()),
                 fmt_int(static_cast<std::int64_t>(a.nonzeros())), fmt(ref_s),
                 fmt(fast_s), fmt(ref_s / fast_s), fmt(flops), fmt(bytes),
                 fmt(flops / bytes)});
  std::cout << "## SpMV (P2 mass+stiffness, " << cells << "^3 cells)\n";
  out.emit(table, "spmv");
  std::cout << "\n";
}

void bench_vec(bench::BenchOutput& out, const CliArgs& args) {
  const int n = static_cast<int>(args.get_int("vec_n", 1 << 18));
  const int iters = static_cast<int>(args.get_int("vec_iters", 40));
  const int reps = static_cast<int>(args.get_int("reps", 5));

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
      auto run = [&](la::KernelMode mode) {
        la::set_kernel_mode(mode);
        body();  // warm
        return best_of(reps, [&] {
                 for (int i = 0; i < iters; ++i) {
                   body();
                 }
               }) /
               iters;
      };
      const double ref_s = run(la::KernelMode::kReference);
      const double fast_s = run(la::KernelMode::kFast);
      table.add_row({op, fmt_int(n), fmt(ref_s), fmt(fast_s),
                     fmt(ref_s / fast_s)});
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

void bench_assembly(bench::BenchOutput& out, const CliArgs& args) {
  const int cells = static_cast<int>(args.get_int("assembly_cells", 6));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  auto& flops_c = obs::metrics().counter("fem.kernel.assembly.flops");
  auto& bytes_c = obs::metrics().counter("fem.kernel.assembly.bytes");

  Table table(
      {"order", "tets", "ref[s]", "fast[s]", "speedup", "flops", "bytes"});
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
    auto run = [&](la::KernelMode mode) {
      la::set_kernel_mode(mode);
      sweep();  // warm (builds the geometry cache in fast mode)
      return best_of(reps, sweep);
    };
    const double ref_s = run(la::KernelMode::kReference);
    const double f0 = flops_c.value();
    const double b0 = bytes_c.value();
    const double fast_s = run(la::KernelMode::kFast);
    const double sweeps = static_cast<double>(reps + 1);
    table.add_row({fmt_int(order),
                   fmt_int(static_cast<std::int64_t>(mesh.tet_count())),
                   fmt(ref_s), fmt(fast_s), fmt(ref_s / fast_s),
                   fmt((flops_c.value() - f0) / sweeps),
                   fmt((bytes_c.value() - b0) / sweeps)});
  }
  std::cout << "## Element assembly (fused mass+stiffness+load sweep, "
            << cells << "^3 cells)\n";
  out.emit(table, "assembly");
  std::cout << "\n";
}

/// Full direct-mode RD per-iteration host time: assembly + Dirichlet +
/// ILU0 + CG, the paper's workhorse, at p ranks with `axis` cells per rank
/// axis: host wall time of one step, the simulated ranks running as fibers
/// on min(p, CPUs) host threads.
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
    const double t0 = wall_s();
    solver.run(steps);
    comm.barrier();
    if (comm.rank() == 0) {
      elapsed = wall_s() - t0;
    }
  });
  return elapsed / steps;
}

void bench_rd_direct(bench::BenchOutput& out, const CliArgs& args) {
  const int ranks = static_cast<int>(args.get_int("ranks", 27));
  const int axis = static_cast<int>(args.get_int("axis", 6));
  const int steps = static_cast<int>(args.get_int("steps", 6));
  const int reps = static_cast<int>(args.get_int("rd_reps", 2));

  Table table({"ranks", "cells", "steps", "ref[s]", "fast[s]", "speedup"});
  for (const int p : {1, ranks}) {
    auto run = [&](la::KernelMode mode) {
      la::set_kernel_mode(mode);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps; ++r) {
        best = std::min(best, rd_step_host_s(p, axis, steps));
      }
      return best;
    };
    const double ref_s = run(la::KernelMode::kReference);
    const double fast_s = run(la::KernelMode::kFast);
    const int per_axis = static_cast<int>(std::lround(std::cbrt(p)));
    table.add_row({fmt_int(p), fmt_int(axis * per_axis), fmt_int(steps),
                   fmt(ref_s), fmt(fast_s), fmt(ref_s / fast_s)});
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

  std::cout << "# Hot-path kernel microbenchmarks (host wall time, "
               "reference vs fast)\n\n";
  bench_spmv(out, args);
  bench_vec(out, args);
  bench_assembly(out, args);
  bench_rd_direct(out, args);

  la::set_kernel_mode(la::KernelMode::kFast);
  return 0;
}
