// Regenerates Figure 5: weak scaling of the Navier-Stokes 3-D simulation
// (Ethier-Steinman problem), 20^3 elements per process, on the four
// platforms. The NS systems couple four fields and the GMRES solve performs
// many latency-bound reductions per iteration, so — as the paper reports —
// "this test does not scale well in any range", with lagrange (InfiniBand)
// degrading least and EC2 competitive at small process counts.

#include <iostream>

#include "core/report.hpp"
#include "bench_main.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace hetero;
  const CliArgs args(argc, argv);
  bench::BenchOutput out(args, "fig5_ns_weak_scaling");

  auto engine = bench::make_engine(args);
  std::cout << "# Figure 5 — weak scaling of the Navier-Stokes 3-D "
               "simulation (initial mesh 20^3 per process)\n";
  const auto procs = core::paper_process_counts();
  const Table table =
      core::weak_scaling_figure(engine, perf::AppKind::kNavierStokes, procs);
  out.emit(table);

  // The paper's qualitative claims, checked numerically on the series.
  core::Experiment small_ec2;
  small_ec2.app = perf::AppKind::kNavierStokes;
  small_ec2.platform = "ec2";
  small_ec2.ranks = 8;
  core::Experiment small_puma = small_ec2;
  small_puma.platform = "puma";
  const auto re = engine.run(small_ec2);
  const auto rp = engine.run(small_puma);
  std::cout << "\n# At 8 processes: ec2 " << fmt_double(re.iteration.total_s, 2)
            << " s/iter vs puma " << fmt_double(rp.iteration.total_s, 2)
            << " s/iter — \"for computationally intensive tasks ... EC2 "
               "performance ... can considerably improve time to completion "
               "in comparison to the department class computing clusters\"\n";
  return 0;
}
