// Regenerates Figure 4: weak scaling of the RD 3-D simulation.
// 20^3 elements per MPI process; process counts 1, 8, 27, ..., 1000 on the
// four platforms; per-iteration assembly / preconditioner / solve / total
// times. Platform launch failures appear exactly where the paper hit them
// (puma's 128-core ceiling, ellipse above 512 ranks, lagrange above 343).
//
// Flags: --csv          emit CSV instead of the aligned table
//        --jobs N       evaluate experiments on N worker threads; the
//                       table (and the JSONL) is byte-identical at any N
//        --validate     additionally run a small direct (thread-level)
//                       execution of the real solver and print its phase
//                       times next to the model's at the same size.

#include <iostream>

#include "bench_main.hpp"
#include "core/report.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace hetero;
  const CliArgs args(argc, argv);
  bench::BenchOutput out(args, "fig4_rd_weak_scaling");

  auto engine = bench::make_engine(args);
  std::cout << "# Figure 4 — weak scaling of the RD 3-D simulation "
               "(initial mesh 20^3 per process)\n";
  const auto procs = core::paper_process_counts();
  const Table table = core::weak_scaling_figure(
      engine, perf::AppKind::kReactionDiffusion, procs);
  out.emit(table);

  if (args.get_bool("validate", false)) {
    std::cout << "\n# Direct-run validation (real solver through the "
                 "simulated MPI, 4^3 cells per rank)\n";
    Table v({"platform", "procs", "mode", "assembly[s]", "precond[s]",
             "solve[s]", "nodal error"});
    for (int p : {1, 8}) {
      core::Experiment e;
      e.platform = "puma";
      e.ranks = p;
      e.cells_per_rank_axis = 4;
      e.mode = core::Mode::kDirect;
      e.direct_steps = 3;
      const auto rd = engine.run(e);
      v.add_row({"puma", std::to_string(p), "direct",
                 fmt_double(rd.iteration.assembly_s, 3),
                 fmt_double(rd.iteration.preconditioner_s, 3),
                 fmt_double(rd.iteration.solve_s, 3),
                 fmt_double(rd.nodal_error, 10)});
      e.mode = core::Mode::kModeled;
      const auto rm = engine.run(e);
      v.add_row({"puma", std::to_string(p), "modeled",
                 fmt_double(rm.iteration.assembly_s, 3),
                 fmt_double(rm.iteration.preconditioner_s, 3),
                 fmt_double(rm.iteration.solve_s, 3), "-"});
    }
    v.render_text(std::cout);
    out.record(v, "validate");
  }
  return 0;
}
