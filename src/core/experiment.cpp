#include "core/experiment.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "apps/ns_solver.hpp"
#include "apps/rd_solver.hpp"
#include "cloud/ec2_service.hpp"
#include "io/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "provision/planner.hpp"
#include "rebroker/controller.hpp"
#include "sched/scheduler.hpp"
#include "simmpi/runtime.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/mid_run.hpp"
#include "support/stats.hpp"

namespace hetero::core {

namespace {

perf::ModelConfig model_for(const Experiment& e) {
  perf::ModelConfig m = e.app == perf::AppKind::kReactionDiffusion
                            ? perf::rd_model()
                            : perf::ns_model();
  m.cells_per_rank_axis = e.cells_per_rank_axis;
  if (e.app == perf::AppKind::kNavierStokes) {
    m.ns_velocity_order = e.element_order;
    if (e.element_order >= 2) {
      // Taylor-Hood trades the stabilization terms for a heavier saddle
      // point: the velocity block grows and GMRES needs more iterations
      // per step than the stabilized equal-order pair.
      m.base_solver_iterations *= 1.5;
    }
  }
  return m;
}

/// Installs a trace recorder for the duration of a scope; uninstalls on
/// exit so an exception inside the run cannot leave a dangling recorder.
class ScopedTraceInstall {
 public:
  explicit ScopedTraceInstall(obs::TraceRecorder* recorder) {
    obs::set_current_trace(recorder);
  }
  ScopedTraceInstall(const ScopedTraceInstall&) = delete;
  ScopedTraceInstall& operator=(const ScopedTraceInstall&) = delete;
  ~ScopedTraceInstall() { obs::set_current_trace(nullptr); }
};

struct ResilMetrics {
  obs::Counter& faults = obs::metrics().counter("resil.faults_injected");
  obs::Counter& launch_retries =
      obs::metrics().counter("resil.launch_retries");
  obs::Counter& checkpoints =
      obs::metrics().counter("resil.checkpoints_written");
  obs::Counter& steps_wasted = obs::metrics().counter("resil.steps_wasted");
  obs::Counter& steps_recovered =
      obs::metrics().counter("resil.steps_recovered");
  obs::Counter& retry_delay_s = obs::metrics().counter("resil.retry_delay_s");
  obs::Counter& wasted_cost_usd =
      obs::metrics().counter("resil.wasted_cost_usd");
  obs::Counter& recoveries = obs::metrics().counter("resil.recoveries");
  obs::Counter& unrecovered = obs::metrics().counter("resil.unrecovered");
};

ResilMetrics& resil_metrics() {
  static ResilMetrics metrics;
  return metrics;
}

/// Adds one direct run's final ledgers to the resil.* and lb.* counters.
/// A run that never checkpointed or faulted leaves the resil.* set alone.
void publish_ledgers(const ExperimentResult& r, bool balanced) {
  const resil::RecoveryStats& s = r.resil;
  if (s.checkpoints_written > 0 || s.faults_injected > 0) {
    ResilMetrics& m = resil_metrics();
    m.faults.add(s.faults_injected);
    m.checkpoints.add(s.checkpoints_written);
    m.steps_wasted.add(s.steps_wasted);
    m.steps_recovered.add(s.steps_recovered);
    m.retry_delay_s.add(s.retry_delay_s);
    m.wasted_cost_usd.add(s.wasted_cost_usd);
    m.recoveries.add(s.recovered ? 1.0 : 0.0);
    m.unrecovered.add(r.launched ? 0.0 : 1.0);
  }
  if (balanced) {
    obs::metrics().counter("lb.checks").add(r.balance.checks);
    obs::metrics().counter("lb.rebalances").add(r.balance.rebalances);
  }
}

/// Scratch file for checkpoint-restart. Unique per (process, call) so
/// campaign-engine threads running direct experiments in parallel never
/// share a file.
std::string checkpoint_scratch_path() {
  static std::atomic<std::uint64_t> counter{0};
  return "/tmp/heterolab_ckpt_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".h5l";
}

// The two apps expose their BDF history under different names.
const la::DistVector& state_now(const apps::RdSolver& s) {
  return s.solution();
}
const la::DistVector& state_prev(const apps::RdSolver& s) {
  return s.previous_solution();
}
const la::DistVector& state_now(const apps::NsSolver& s) { return s.state(); }
const la::DistVector& state_prev(const apps::NsSolver& s) {
  return s.previous_state();
}

/// The experiment's skew plan for one platform. Salted like the fault
/// stream so skew draws never correlate with crashes or spot prices.
resil::SkewPlan make_skew_plan(const Experiment& e, std::uint64_t runner_seed,
                               const std::string& platform) {
  const std::uint64_t skew_seed =
      hash_combine(hash_combine(0x736b6577ULL /* "skew" */, runner_seed),
                   e.seed);
  return resil::SkewPlan(e.skew, skew_seed, platform);
}

/// Mean per-rank skew factors — the modeled (expected-value) view of the
/// direct-mode plan, hashed from the same stream.
std::vector<double> skew_mean_factors(const resil::SkewPlan& plan, int ranks) {
  std::vector<double> factors(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    factors[static_cast<std::size_t>(r)] = plan.mean_factor(r);
  }
  return factors;
}

/// Steps a spot-reclaim storm is expected to redo: half a checkpoint
/// interval, or half the run when nothing is checkpointed.
int storm_redo_steps(const Experiment& e) {
  const bool ckpt = e.recovery.kind == resil::RecoveryKind::kCheckpointRestart;
  return std::max(1, (ckpt ? e.recovery.checkpoint_every : e.direct_steps) / 2);
}

/// The mid-run controllers of a direct run, in call order, and the
/// checkpoint ledger their checkpoints share (docs/resilience.md, "Mid-run
/// controllers"). Each attempt hands every rank its own copy.
struct MidRun {
  resil::Recovery recovery;
  rebroker::Controller rebroker;
  lb::LoadBalancer balancer;
  int ckpt_step = 0;  ///< steps the newest checkpoint holds; 0 = none
  int checkpoints_written = 0;

  /// Each controller's constructor validates its own policy.
  MidRun(const Experiment& e, std::uint64_t runner_seed)
      : recovery(e.recovery),
        rebroker(e.rebroker, e.app, e.cells_per_rank_axis, e.direct_steps,
                 hash_combine(
                     hash_combine(0x7262726bULL /* "rbrk" */, runner_seed),
                     e.seed),
                 resil::backoff_delay_s(e.recovery, 0), storm_redo_steps(e)),
        balancer(e.balance, e.ranks) {}

  template <class F>
  void each(F&& f) {
    f(recovery);
    f(rebroker);
    f(balancer);
  }
};

/// Runs the application through simmpi as one attempt loop over the
/// mid-run controllers: each attempt ends by completing, by a controller's
/// clean stop (the host then moves the job), or by an injected fault (the
/// controllers then decide the retry).
ExperimentResult run_direct(const Experiment& experiment,
                            const platform::PlatformSpec& spec,
                            const resil::FaultPlan& plan, MidRun mid,
                            std::uint64_t runner_seed) {
  std::optional<obs::TraceRecorder> recorder;
  std::optional<ScopedTraceInstall> install;
  if (!experiment.trace_path.empty()) {
    install.emplace(&recorder.emplace(experiment.ranks));
  }

  // Global mesh: cells_per_rank_axis^3 per rank, cube decomposition. The
  // global problem is fixed by the *original* rank count and stays fixed
  // when recovery shrinks the assembly (27 -> 8 after a reclaim) — the
  // survivors take over the lost gids.
  const int k = static_cast<int>(std::round(std::cbrt(experiment.ranks)));
  HETERO_REQUIRE(k * k * k == experiment.ranks,
                 "direct mode needs a cubic rank count (1, 8, 27, ...)");
  const int global_cells = experiment.cells_per_rank_axis * k;
  const int steps = experiment.direct_steps;

  // Where the job runs and how it is partitioned. Only the host writes
  // these, between attempts.
  const platform::PlatformSpec* cur = &spec;
  int ranks = experiment.ranks;
  std::vector<double> weights;  // empty until the first rebalance
  const bool rank_times = mid.balancer.enabled();
  const std::string ckpt_path = checkpoint_scratch_path();

  // Completed-step records by absolute step index; rank 0 writes, the one
  // host variable written mid-attempt. Re-run steps overwrite with
  // identical values (same discrete trajectory), and a step rank 0 never
  // recorded is covered by no checkpoint, so it always runs again.
  std::vector<apps::StepRecord> records(static_cast<std::size_t>(steps));
  ExperimentResult result;

  for (int attempt = 0;; ++attempt) {
    // The attempt's planned fault, rank -1 for a spot-reclaim storm. A
    // restart exposes fewer crash cells. Storms only exist where there is
    // a spot market; a migration to an on-premises queue leaves them
    // behind. When both arm, only the earlier one fires (ties go to the
    // crash): one throwing rank per attempt keeps Runtime::run's
    // first-error propagation deterministic.
    auto planned = plan.rank_crash(ranks, steps, attempt, mid.ckpt_step);
    if (cur->spot_node_hour_usd > 0.0) {
      const auto storm = plan.spot_reclaim(steps, attempt, mid.ckpt_step);
      if (storm && (!planned || *storm < planned->step)) {
        planned = resil::RankCrash{-1, *storm};
      }
    }
    mid.each([&](auto& c) { c.begin_attempt(attempt, cur->name, ranks); });
    std::vector<MidRun> replicas(static_cast<std::size_t>(ranks), mid);
    simmpi::Runtime runtime(cur->topology(ranks));
    if (plan.enabled()) runtime.set_degradation(plan.degradation());
    if (experiment.skew.enabled()) {
      // Per-rank slow cores and time-windowed noisy neighbors, hashed from
      // (seed, platform, rank): every compute charge on rank r at virtual
      // time t is stretched by the same factor at any --jobs.
      const resil::SkewPlan splan =
          make_skew_plan(experiment, runner_seed, cur->name);
      runtime.set_compute_scale(
          [splan](int rank, double now) { return splan.factor_at(rank, now); });
    }

    // One rank's attempt: restore the newest checkpoint, then step to the
    // end, to the planned fault, or to a controller's stop. Every
    // controller decision lands in the rank's own replica.
    auto drive = [&](simmpi::Comm& comm, auto&& solver) {
      MidRun& mine = replicas[static_cast<std::size_t>(comm.rank())];
      if (mine.ckpt_step > 0) {
        la::DistVector u_now(solver.map());
        la::DistVector u_prev(solver.map());
        const io::SolverCheckpointMeta meta =
            io::load_solver_checkpoint(comm, u_now, u_prev, ckpt_path);
        HETERO_REQUIRE(meta.steps_done == mine.ckpt_step,
                       "checkpoint ledger and checkpoint file disagree");
        solver.restore_state(u_now, u_prev, meta.time);
      }
      for (int s = mine.ckpt_step; s < steps; ++s) {
        if (planned && s == planned->step &&
            comm.rank() == std::max(0, planned->rank)) {
          const bool storm = planned->rank < 0;
          obs::trace_instant(storm ? "spot_reclaim" : "rank_crash", "resil",
                             comm.now(), "step", static_cast<double>(s));
          if (storm) throw resil::SpotReclaim(s, comm.now());
          throw resil::InjectedFault(comm.rank(), s, comm.now());
        }
        const apps::StepRecord record = solver.step();
        if (comm.rank() == 0) records[static_cast<std::size_t>(s)] = record;
        // timing.total_s is an allreduced maximum and rank_step_s an
        // allgather: every replica folds the same step and agrees.
        const midrun::Step step{s, record.timing.total_s,
                                cur->cost_usd(ranks, record.timing.total_s),
                                record.rank_step_s, s + 1 == steps};
        midrun::Action action = midrun::Action::kContinue;
        mine.each([&](auto& c) {
          if (action == midrun::Action::kStop) return;
          const midrun::Verdict v = c.observe_step(step);
          if (v.action == midrun::Action::kContinue) return;
          io::save_solver_checkpoint(comm, state_now(solver),
                                     state_prev(solver),
                                     solver.current_time(), s + 1, ckpt_path);
          mine.ckpt_step = s + 1;
          ++mine.checkpoints_written;
          if (comm.rank() == 0) {
            obs::trace_instant(v.name, v.category, comm.now(), "step",
                               static_cast<double>(s + 1));
          }
          action = v.action;
        });
        if (action == midrun::Action::kStop) return;
      }
    };
    std::optional<resil::InjectedFault> fault;
    try {
      runtime.run([&](simmpi::Comm& comm) {
        auto configure = [&](auto config) {
          config.global_cells = global_cells;
          config.cpu = cur->cpu_model();
          config.rank_weights = weights;
          config.collect_rank_step_s = rank_times;
          return config;
        };
        if (experiment.app == perf::AppKind::kReactionDiffusion) {
          drive(comm, apps::RdSolver(comm, configure(apps::RdConfig{})));
        } else {
          apps::NsConfig ns;
          ns.velocity_order = experiment.element_order;
          drive(comm, apps::NsSolver(comm, configure(ns)));
        }
      });
    } catch (const resil::InjectedFault& thrown) {
      fault = thrown;
    }
    // After a clean end every replica holds the same state. After a fault
    // only the thrower (rank 0 for a storm) is sure to have finished every
    // step, checkpoint and observation before it.
    mid = std::move(replicas[fault ? std::max(0, fault->rank()) : 0]);
    if (fault) {
      midrun::Fault f{fault->step(),  fault->rank() < 0,
                      fault->now_s(), cur->cost_usd(ranks, fault->now_s()),
                      mid.ckpt_step,  ranks};
      mid.each([&](auto& c) { c.on_fault(f); });
      if (!f.retry) {
        result.failure_reason =
            std::string(fault->what()) + "; unrecovered after " +
            std::to_string(attempt + 1) + " attempt(s) with policy '" +
            resil::to_string(experiment.recovery.kind) + "'";
        break;
      }
      ranks = f.ranks;
      obs::trace_instant("recovery_restart", "resil", f.dead_s, "attempt",
                         static_cast<double>(attempt + 1));
      continue;
    }
    std::optional<midrun::Move> move;
    mid.each([&](auto& c) {
      if (auto m = c.on_stop(runtime.elapsed_sim_seconds(), mid.ckpt_step)) {
        move = std::move(m);
      }
    });
    if (!move) break;  // the attempt ran to the end
    if (!move->weights.empty()) weights = std::move(move->weights);
    if (!move->platform.empty()) {
      cur = &platform::platform_by_name(move->platform);
      ranks = move->ranks;
    }
  }

  // The one exit, for a completed run and a failed one alike.
  std::remove(ckpt_path.c_str());
  if (recorder) recorder->write_chrome_json(experiment.trace_path);
  result.launched = result.failure_reason.empty();
  result.resil = mid.recovery.outcome();
  result.resil.checkpoints_written = mid.checkpoints_written;
  result.resil.final_ranks = ranks;
  result.rebroker = mid.rebroker.outcome();
  result.balance = mid.balancer.outcome();
  publish_ledgers(result, rank_times);
  if (!result.launched) return result;

  SampleStats assembly;
  SampleStats precond;
  SampleStats solve;
  SampleStats total;
  double nodal_error = 0.0;
  bool converged = true;
  apps::WorkCounts work;
  std::int64_t iters_total = 0;
  for (const auto& r : records) {
    assembly.add(r.timing.assembly_s);
    precond.add(r.timing.preconditioner_s);
    solve.add(r.timing.solve_s);
    total.add(r.timing.total_s);
    nodal_error = std::max(nodal_error, r.nodal_error);
    converged = converged && r.solver_converged;
    work = r.work;
    iters_total += r.solver_iterations;
  }

  result.iteration.assembly_s = assembly.mean();
  result.iteration.preconditioner_s = precond.mean();
  result.iteration.solve_s = solve.mean();
  result.iteration.total_s = total.mean();
  result.iteration.solver_iterations =
      static_cast<double>(iters_total) / experiment.direct_steps;
  result.work_per_rank = work;
  result.nodal_error = nodal_error;
  result.solver_converged = converged;
  result.cost_per_iteration_usd = mid.rebroker.cost_per_iteration_usd(
      cur->cost_usd(ranks, result.iteration.total_s));
  result.est_cost_per_iteration_usd = result.cost_per_iteration_usd;
  return result;
}

}  // namespace

ExperimentRunner::ExperimentRunner(std::uint64_t seed) : seed_(seed) {}

ExperimentResult ExperimentRunner::run(const Experiment& experiment) {
  HETERO_REQUIRE(experiment.ranks >= 1, "experiment needs ranks >= 1");
  HETERO_REQUIRE(
      experiment.element_order == 1 || experiment.element_order == 2,
      "element_order must be 1 (P1/P1) or 2 (Taylor-Hood P2/P1)");
  HETERO_REQUIRE(experiment.element_order == 1 ||
                     experiment.app == perf::AppKind::kNavierStokes,
                 "the Taylor-Hood pair applies to the Navier-Stokes app only "
                 "(reaction-diffusion is a fixed P2 scalar discretization)");
  if (experiment.skew_assume_balanced) {
    HETERO_REQUIRE(experiment.mode == Mode::kModeled,
                   "assume-balanced is the analytic modeled projection; "
                   "direct runs balance for real via balance.enabled");
    HETERO_REQUIRE(experiment.skew.enabled(),
                   "assume-balanced needs skew enabled (a uniform platform "
                   "has nothing to balance)");
  }
  const platform::PlatformSpec& spec =
      platform::platform_by_name(experiment.platform);
  if (experiment.rebroker.enabled) {
    HETERO_REQUIRE(experiment.mode == Mode::kDirect,
                   "re-brokering needs --mode direct (the control loop "
                   "samples live step times)");
  }
  if (experiment.balance.enabled) {
    HETERO_REQUIRE(experiment.mode == Mode::kDirect,
                   "load balancing needs --mode direct (the balancer samples "
                   "live per-rank step times)");
    HETERO_REQUIRE(!experiment.recovery.shrink_ranks_on_crash,
                   "load balancing conflicts with shrink-on-crash recovery "
                   "(weights are keyed to the original rank count)");
    HETERO_REQUIRE(!experiment.rebroker.enabled,
                   "load balancing conflicts with re-brokering (at most one "
                   "controller may rebuild the run mid-flight)");
  }
  // Built before submission, so bad policy values throw before any launch
  // decision.
  std::optional<MidRun> mid;
  if (experiment.mode == Mode::kDirect) {
    mid.emplace(experiment, seed_);
  }

  ExperimentResult result;
  result.provisioning_hours =
      provision::plan_provisioning(spec).total_hours();

  // Salted combine: the fault stream is independent of the Rng streams that
  // draw queue waits and spot prices from the same two seeds.
  const resil::FaultPlan plan(
      experiment.faults,
      hash_combine(hash_combine(0x726573696cULL /* "resil" */, seed_),
                   experiment.seed));

  // Availability: can the platform even launch this job, and how long does
  // it sit in the queue (or wait for instance boot)? Injected *transient*
  // launch failures are retried under the recovery policy, each retry
  // charging a capped exponential backoff to the wait; capability failures
  // ("puma has only 128 cores") are never retried.
  Rng rng(seed_ ^ experiment.seed);
  std::unique_ptr<sched::Scheduler> scheduler = sched::make_scheduler(spec);
  if (plan.enabled()) {
    scheduler =
        std::make_unique<sched::FaultyScheduler>(std::move(scheduler), plan);
  }
  sched::JobOutcome outcome;
  for (int attempt = 0;; ++attempt) {
    outcome = scheduler->submit(
        {experiment.ranks, /*estimated_runtime_s=*/3600.0}, rng);
    if (outcome.launched || !outcome.transient) break;
    if (experiment.recovery.kind == resil::RecoveryKind::kNone ||
        attempt + 1 >= experiment.recovery.max_attempts) {
      break;
    }
    ++result.resil.launch_retries;
    result.resil.retry_delay_s +=
        resil::backoff_delay_s(experiment.recovery, attempt);
    resil_metrics().launch_retries.increment();
  }
  if (!outcome.launched) {
    result.launched = false;
    result.failure_reason = outcome.failure_reason;
    return result;
  }
  result.launched = true;
  result.queue_wait_s = outcome.wait_s + result.resil.retry_delay_s;
  result.hosts = (experiment.ranks + spec.cores_per_node() - 1) /
                 spec.cores_per_node();

  ExperimentResult run_part =
      mid ? run_direct(experiment, spec, plan, std::move(*mid), seed_)
          : run_modeled(experiment, spec);
  // Merge the run-phase output into the availability/effort scaffold.
  // Direct mode decides `launched` itself: an unrecovered injected fault
  // reports failure even though the scheduler said yes.
  run_part.queue_wait_s = result.queue_wait_s;
  run_part.provisioning_hours = result.provisioning_hours;
  run_part.hosts = result.hosts;
  run_part.resil.launch_retries = result.resil.launch_retries;
  run_part.resil.retry_delay_s += result.resil.retry_delay_s;
  if (run_part.resil.final_ranks == 0) {
    run_part.resil.final_ranks = experiment.ranks;
  }
  if (!experiment.metrics_path.empty()) {
    obs::metrics().write_json(experiment.metrics_path);
  }
  return run_part;
}

ExperimentResult ExperimentRunner::run_modeled(
    const Experiment& experiment, const platform::PlatformSpec& spec) {
  ExperimentResult result;
  result.launched = true;
  const perf::ModelConfig model = model_for(experiment);
  result.work_per_rank = perf::work_per_rank(model, experiment.ranks);

  apps::CpuCostModel cpu = spec.cpu_model();
  if (experiment.skew.enabled()) {
    // Synchronized iterations run at the pace of the slowest core: degrade
    // the platform's uniform speed by the *unbalanced* skew slowdown — or,
    // under skew_assume_balanced, by the harmonic-mean slowdown of a
    // perfectly capacity-balanced partition (the analytic twin of direct
    // mode's dynamic balancer; always <= the unbalanced factor).
    const resil::SkewPlan splan = make_skew_plan(experiment, seed_, spec.name);
    const std::vector<double> factors =
        skew_mean_factors(splan, experiment.ranks);
    cpu.speed_factor /= experiment.skew_assume_balanced
                            ? perf::skew_slowdown_balanced(factors)
                            : perf::skew_slowdown_unbalanced(factors);
  }

  if (spec.name == "ec2") {
    // Build the assembly through the cloud service so placement groups,
    // the spot market, and billing semantics all apply.
    cloud::Ec2Service service(seed_ ^ experiment.seed);
    service.authorize_intranet_tcp();
    const int hosts = (experiment.ranks + spec.cores_per_node() - 1) /
                      spec.cores_per_node();
    std::vector<int> groups;
    for (int g = 0; g < std::max(1, experiment.ec2_placement_groups); ++g) {
      groups.push_back(
          service.create_placement_group("hl-" + std::to_string(g)));
    }
    std::vector<cloud::Instance> instances;
    if (experiment.ec2_spot_mix) {
      auto spot = service.request_spot("cc2.8xlarge", hosts,
                                       experiment.ec2_spot_bid_usd, groups);
      instances = spot.instances;
      result.spot_hosts = static_cast<int>(instances.size());
      const int missing = hosts - result.spot_hosts;
      if (missing > 0) {
        // The paper "never succeeded in establishing a full 63-host spot
        // configuration" and topped up with regularly priced hosts.
        auto fill = service.request_on_demand(
            "cc2.8xlarge", missing,
            groups[static_cast<std::size_t>(result.spot_hosts) %
                   groups.size()]);
        instances.insert(instances.end(), fill.instances.begin(),
                         fill.instances.end());
      }
    } else {
      instances =
          service.request_on_demand("cc2.8xlarge", hosts, groups.front())
              .instances;
    }
    const auto topo = service.assembly_topology(
        instances, experiment.ranks, experiment.cross_group_penalty);
    result.iteration =
        perf::project_iteration(model, topo, cpu, experiment.ranks);
    // Per-iteration cost at the blended hourly rate of the assembly.
    double hourly = 0.0;
    for (const auto& inst : instances) {
      hourly += inst.hourly_usd;
    }
    result.cost_per_iteration_usd = hourly * result.iteration.total_s / 3600.0;
    result.est_cost_per_iteration_usd =
        hosts * cloud::instance_type("cc2.8xlarge").typical_spot_hourly_usd *
        result.iteration.total_s / 3600.0;
    result.hosts = hosts;
    return result;
  }

  const auto topo = spec.topology(experiment.ranks);
  result.iteration =
      perf::project_iteration(model, topo, cpu, experiment.ranks);
  result.cost_per_iteration_usd =
      spec.cost_usd(experiment.ranks, result.iteration.total_s);
  result.est_cost_per_iteration_usd = result.cost_per_iteration_usd;
  return result;
}

std::vector<double> modeled_skew_factors(const Experiment& experiment,
                                         std::uint64_t runner_seed) {
  if (!experiment.skew.enabled()) {
    return std::vector<double>(static_cast<std::size_t>(experiment.ranks),
                               1.0);
  }
  const platform::PlatformSpec& spec =
      platform::platform_by_name(experiment.platform);
  const resil::SkewPlan plan =
      make_skew_plan(experiment, runner_seed, spec.name);
  return skew_mean_factors(plan, experiment.ranks);
}

}  // namespace hetero::core
