// rd_p27: direct-mode reaction-diffusion (P2, BDF2, CG + ILU0) on puma's
// topology, 27 simulated ranks x 6^3 cells each (an 18^3 global cube), with
// the calm config ExperimentRunner::run_direct builds. The op is one time
// step of all ranks in a closed loop; the exact-solution oracle checks
// every step.
//
// A session is a fresh Runtime and solver, the warm-up steps, then a fixed
// number of timed steps. Sessions repeat until the run's time is spent, so
// every run times the same physical steps: the Krylov work per step falls
// as simulated time advances, and a time-bounded session would mix cheap
// late steps into fast runs only. The problem is fixed by the oracle, so
// the seed changes no input. Set-ups and steps are timed in CPU time of
// the whole process, all 27 rank threads.

#include <sys/resource.h>

#include <algorithm>
#include <map>

#include "apps/rd_solver.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "platform/platform_spec.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

namespace {

using namespace hetero;

constexpr int kRanks = 27;
/// 6 cells per rank axis on the 3 x 3 x 3 rank cube.
constexpr int kGlobalCells = 18;
constexpr int kWarmupSteps = 2;
constexpr int kTimedSteps = 12;
/// A run has at least 5 sessions (setup_s is the median of their set-ups)
/// and so at least 60 steps, twelve beyond the p80 tail. Five sessions
/// take 15-35 s on one CPU, on a quiet or a busy host.
constexpr UnitNeeds kNeeds{5, 5 * kTimedSteps};
constexpr double kTailPct = 80.0;
/// Steps the single-rank baseline measures after its warm-up.
constexpr int kP1Steps = 3;
constexpr double kNodalTolerance = 1e-8;

/// Kernel-layer work counters: metric name -> obs counter name.
const std::pair<const char*, const char*> kCounters[] = {
    {"la.spmv_flops", "la.kernel.spmv.flops"},
    {"la.spmv_bytes", "la.kernel.spmv.bytes"},
    {"la.halo_bytes", "la.halo.bytes"},
    {"fem.assembly_flops", "fem.kernel.assembly.flops"},
    {"fem.assembly_bytes", "fem.kernel.assembly.bytes"}};

struct ThreadUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double switches = 0.0;
};

ThreadUsage thread_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  ThreadUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// One rank's readings across one timed step (traced sessions).
struct RankStep {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double switches = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double collectives = 0.0;
};

struct Session {
  Unit unit;
  std::uint64_t failed_steps = 0;
  bool warmup_ok = true;
  double max_nodal_error = 0.0;
  // Traced sessions only.
  double spawn_join_s = 0.0;
  double solver_setup_s = 0.0;
  double warmup_s = 0.0;
  double setup_rss_mb = 0.0;
  std::vector<int> iterations;
  std::vector<std::vector<RankStep>> rank_steps;  // [rank][step]
  std::map<std::string, double> counted;          // kCounters deltas
};

apps::RdConfig rd_config() {
  apps::RdConfig config;
  config.global_cells = kGlobalCells;
  config.cpu = platform::platform_by_name("puma").cpu_model();
  return config;
}

bool step_ok(const apps::StepRecord& r) {
  return r.solver_converged && r.nodal_error <= kNodalTolerance;
}

double counter(const char* name) {
  return obs::metrics().counter(name).value();
}

/// One session. Traced sessions also read each rank thread's CPU, context
/// switches and traffic around every step, and the kernel counters over
/// the timed steps (fenced by barriers, so the counts are exact).
Session run_session(bool traced, SpanRecorder* spans) {
  Session out;
  out.rank_steps.resize(traced ? kRanks : 0);
  std::vector<double> body_s(kRanks, 0.0);
  const apps::RdConfig config = rd_config();

  const double cpu_call = cpu_s();
  simmpi::Runtime runtime(platform::platform_by_name("puma").topology(kRanks));
  const double t_run = now_s();
  runtime.run([&](simmpi::Comm& comm) {
    const double body_start = now_s();
    const int rank = comm.rank();
    const bool lead = rank == 0;
    SpanRecorder* rec = lead ? spans : nullptr;

    double mark = 0.0;
    if (traced) {
      comm.barrier();
      mark = now_s();
    }
    apps::RdSolver solver(comm, config);
    if (traced) {
      comm.barrier();
      if (lead) out.solver_setup_s = now_s() - mark;
    }
    mark = now_s();
    for (int w = 0; w < kWarmupSteps; ++w) {
      const apps::StepRecord r = solver.step();
      if (lead && !step_ok(r)) out.warmup_ok = false;
    }
    if (lead) {
      out.warmup_s = now_s() - mark;
      if (traced) out.setup_rss_mb = current_rss_mb();
    }
    comm.barrier();
    if (traced) {
      if (lead) {
        for (const auto& [metric, name] : kCounters) {
          out.counted[metric] -= counter(name);
        }
      }
      comm.barrier();
    }
    double t_prev = now_s();
    double cpu_prev = cpu_s();
    if (lead) out.unit.setup_s.push_back(cpu_prev - cpu_call);

    for (int s = 0; s < kTimedSteps; ++s) {
      ScopedSpan op(rec, "op");
      ThreadUsage u0;
      double w0 = 0.0;
      simmpi::CommStats c0;
      if (traced) {
        const simmpi::CommStats& c = comm.stats();
        c0.messages_sent = c.messages_sent;
        c0.bytes_sent = c.bytes_sent;
        c0.collectives = c.collectives;
        w0 = now_s();
        u0 = thread_usage();
      }
      apps::StepRecord r;
      {
        ScopedSpan step(rec, "apps.step");
        r = solver.step();
      }
      if (traced) {
        const ThreadUsage u1 = thread_usage();
        const simmpi::CommStats& c = comm.stats();
        out.rank_steps[static_cast<std::size_t>(rank)].push_back(
            {now_s() - w0, u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
             u1.switches - u0.switches,
             static_cast<double>(c.messages_sent - c0.messages_sent),
             static_cast<double>(c.bytes_sent - c0.bytes_sent),
             static_cast<double>(c.collectives - c0.collectives)});
      }
      if (lead) {
        // Closed loop: a step's CPU time is what every rank thread ran
        // between rank 0's step ends.
        const double t = now_s();
        const double cpu = cpu_s();
        out.unit.op_ms.push_back((cpu - cpu_prev) * 1e3);
        out.unit.timed_s += cpu - cpu_prev;
        out.unit.wall_ms.push_back((t - t_prev) * 1e3);
        t_prev = t;
        cpu_prev = cpu;
        if (!step_ok(r)) ++out.failed_steps;
        out.max_nodal_error = std::max(out.max_nodal_error, r.nodal_error);
        if (traced) out.iterations.push_back(r.solver_iterations);
      }
    }
    if (traced) {
      comm.barrier();
      if (lead) {
        for (const auto& [metric, name] : kCounters) {
          out.counted[metric] += counter(name);
        }
      }
    }
    body_s[static_cast<std::size_t>(rank)] = now_s() - body_start;
  });
  out.spawn_join_s =
      (now_s() - t_run) - *std::max_element(body_s.begin(), body_s.end());
  return out;
}

/// User + system CPU per step of the same problem on a single rank.
double rd_p1_step_cpu_s(Report& report) {
  simmpi::Runtime runtime(platform::platform_by_name("puma").topology(1));
  double per_step = 0.0;
  runtime.run([&](simmpi::Comm& comm) {
    apps::RdSolver solver(comm, rd_config());
    for (int w = 0; w < kWarmupSteps; ++w) {
      solver.step();
    }
    const ThreadUsage u0 = thread_usage();
    for (int s = 0; s < kP1Steps; ++s) {
      report.check(step_ok(solver.step()), "rd_p1: step failed the oracle");
    }
    const ThreadUsage u1 = thread_usage();
    per_step = (u1.user_s + u1.sys_s - u0.user_s - u0.sys_s) / kP1Steps;
  });
  return per_step;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void add_layers(Report& report, const std::vector<Session>& traced,
                const std::vector<double>& untraced_ms) {
  std::vector<double> spawn, setup, warm, rss, traced_ms;
  std::vector<double> user, sys, wait, switches, imbalance;
  std::vector<double> messages, bytes, collectives, iterations;
  std::map<std::string, double> counted;
  for (const Session& s : traced) {
    spawn.push_back(s.spawn_join_s);
    setup.push_back(s.solver_setup_s);
    warm.push_back(s.warmup_s);
    rss.push_back(s.setup_rss_mb);
    const std::vector<double>& steps = s.unit.op_ms;
    traced_ms.insert(traced_ms.end(), steps.begin(), steps.end());
    for (const auto& [name, value] : s.counted) counted[name] += value;
    for (std::size_t step = 0; step < steps.size(); ++step) {
      double u = 0, y = 0, w = 0, sw = 0, m = 0, b = 0, c = 0, cpu_max = 0;
      for (const auto& ranks : s.rank_steps) {
        const RankStep& r = ranks[step];
        u += r.user_s;
        y += r.sys_s;
        w += r.wall_s - r.user_s - r.sys_s;
        sw += r.switches;
        m += r.messages;
        b += r.bytes;
        c += r.collectives;
        cpu_max = std::max(cpu_max, r.user_s + r.sys_s);
      }
      user.push_back(u);
      sys.push_back(y);
      wait.push_back(w);
      switches.push_back(sw);
      imbalance.push_back(u + y > 0 ? cpu_max / ((u + y) / kRanks) : 1.0);
      messages.push_back(m);
      bytes.push_back(b);
      collectives.push_back(c);
      iterations.push_back(s.iterations[step]);
    }
  }
  const double counted_steps =
      static_cast<double>(kTimedSteps) * static_cast<double>(traced.size());
  report.add("simmpi.spawn_join_s", median(spawn), "s", "setup_s");
  report.add("apps.setup_s", median(setup), "s", "setup_s");
  report.add("apps.warmup_s", median(warm), "s", "setup_s");
  report.add("apps.step_cpu_s", mean(user), "s", "op_p50_ms, ops_per_s");
  report.add("simmpi.sys_cpu_s", mean(sys), "s", "op_p50_ms, ops_per_s");
  report.add("simmpi.wait_s", mean(wait), "s", "op_p50_ms");
  report.add("simmpi.ctx_switches", mean(switches), "count", "op_p50_ms");
  report.add("apps.rank_imbalance", median(imbalance), "ratio", "op_tail_ms");
  report.add("simmpi.messages", mean(messages), "count", "op_p50_ms");
  report.add("simmpi.bytes", mean(bytes), "B", "op_p50_ms");
  report.add("simmpi.collectives", mean(collectives), "count", "op_p50_ms");
  report.add("solvers.iterations", mean(iterations), "count", "op_p50_ms");
  for (const auto& [metric, name] : kCounters) {
    report.add(metric, counted[metric] / counted_steps,
               std::string(metric).ends_with("flops") ? "flop" : "B",
               "op_p50_ms");
  }
  report.add("rd_p1.step_cpu_s", rd_p1_step_cpu_s(report), "s",
             "baseline for apps.step_cpu_s + simmpi.sys_cpu_s");
  report.add("mem.setup_rss_mb", median(rss), "MB", "peak_rss_mb");
  report.add("trace.overhead_pct",
             (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%",
             "op_p50_ms traced vs untraced");
}

}  // namespace

Report run_rd_p27(const RunConfig& config, SpanRecorder* spans) {
  Report report;
  std::vector<Session> sessions;
  const double start = now_s();
  while (want_unit(units_of(sessions), now_s() - start, config, kNeeds)) {
    // A traced run alternates untraced and traced sessions, so the
    // tracing overhead is measured under the same conditions.
    const bool trace_this = config.trace && sessions.size() % 2 == 1;
    const double probe_s = clock_probe_s();
    Session s = run_session(trace_this, trace_this ? spans : nullptr);
    s.unit.probe_s = std::min(probe_s, clock_probe_s());
    report.attempted += kTimedSteps;
    report.failed += s.failed_steps;
    report.check(s.warmup_ok, "rd_p27: a warm-up step failed the oracle");
    report.check(s.max_nodal_error <= kNodalTolerance,
                 "rd_p27: nodal error " + std::to_string(s.max_nodal_error) +
                     " above the oracle tolerance");
    sessions.push_back(std::move(s));
  }
  report.check(report.failed == 0, "rd_p27: " + std::to_string(report.failed) +
                                       " steps failed to converge");
  if (!config.trace) {
    add_end_to_end(report, units_of(sessions), kNeeds, kTailPct);
    return report;
  }
  std::vector<Session> traced;
  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (i % 2 == 1) {
      traced.push_back(std::move(sessions[i]));
    } else {
      const std::vector<double>& steps = sessions[i].unit.op_ms;
      untraced_ms.insert(untraced_ms.end(), steps.begin(), steps.end());
    }
  }
  add_layers(report, traced, untraced_ms);
  return report;
}

}  // namespace perfbench
