// heterolab — unified command-line driver for the library.
//
//   heterolab platforms                      Table I capability matrix
//   heterolab run --app rd --platform ec2 --ranks 125 [--mode direct]
//   heterolab fig4 | fig5 | table2 | fig6 | fig7 [--csv]
//   heterolab summary [--ranks 125]
//   heterolab campaign --ranks 512 --iterations 500 [--ondemand]
//                      [--ckpt 25] [--bid 0.70]
//   heterolab provision [--platform ec2]
//   heterolab broker --app rd --elements 1000000 --deadline-h 24
//                    --budget-usd 50 [--objective effective]
//
// Everything is deterministic in --seed (default 42). Unknown subcommands
// or flags print the usage and exit non-zero.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "broker/broker.hpp"
#include "grid/matrix.hpp"
#include "grid/report.hpp"
#include "core/campaign.hpp"
#include "core/campaign_engine.hpp"
#include "core/report.hpp"
#include "obs/bench_io.hpp"
#include "platform/capability_table.hpp"
#include "proc/supervisor.hpp"
#include "provision/planner.hpp"
#include "resil/recovery.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/shutdown.hpp"
#include "support/units.hpp"
#include "svc/memo_store.hpp"
#include "svc/result_codec.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace {

using namespace hetero;

void render(const Table& table, const CliArgs& args) {
  if (args.get_bool("csv", false)) {
    table.render_csv(std::cout);
  } else {
    table.render_text(std::cout);
  }
}

int cmd_platforms(const CliArgs& args) {
  render(platform::capability_table(), args);
  return 0;
}

/// Owns a registered shutdown-hook token; removes the hook on destruction.
class ScopedShutdownHook {
 public:
  ScopedShutdownHook() = default;
  explicit ScopedShutdownHook(std::function<void()> hook)
      : token_(support::add_shutdown_hook(std::move(hook))) {}
  ScopedShutdownHook(ScopedShutdownHook&& other) noexcept
      : token_(other.token_) {
    other.token_ = -1;
  }
  ScopedShutdownHook& operator=(ScopedShutdownHook&& other) noexcept {
    if (this != &other) {
      if (token_ >= 0) {
        support::remove_shutdown_hook(token_);
      }
      token_ = other.token_;
      other.token_ = -1;
    }
    return *this;
  }
  ~ScopedShutdownHook() {
    if (token_ >= 0) {
      support::remove_shutdown_hook(token_);
    }
  }

 private:
  int token_ = -1;
};

/// Engine plus the optional backends the flags wire behind it. Member
/// order is the teardown contract (members destroy in reverse): the engine
/// (which holds raw pointers into the others) goes first, then the
/// supervisor, then the store's flush hook, then the stores.
struct EngineBundle {
  std::unique_ptr<svc::MemoStore> store;
  std::unique_ptr<svc::MemoResultStore> result_store;
  ScopedShutdownHook store_flush_hook;
  std::unique_ptr<proc::Supervisor> supervisor;
  std::unique_ptr<core::CampaignEngine> engine;
};

/// --jobs N > HETEROLAB_JOBS > hardware concurrency; `direct_default_1`
/// makes direct-mode runs sequential unless --jobs is given explicitly
/// (each direct experiment already runs its ranks as fibers on
/// min(ranks, CPUs) host threads).
/// --workers N > HETEROLAB_WORKERS > 0 forks a supervised worker-process
/// pool; --store PATH persists results across restarts; --proc-dir PATH
/// keeps the worker shards on disk so interrupted runs resume.
EngineBundle make_engine(const CliArgs& args, bool direct_default_1 = false,
                         std::optional<std::uint64_t> seed_override = {}) {
  EngineBundle b;
  core::CampaignEngineOptions opt;
  opt.jobs = args.get_int32("jobs", 0);
  if (opt.jobs == 0 && direct_default_1 && !args.has("jobs")) {
    opt.jobs = 1;
  }
  // seed_override pins the runner seed regardless of --seed; the grid
  // subcommand uses it so --seed moves only the matrix's stochastic cells.
  const std::uint64_t seed = seed_override.has_value()
      ? *seed_override
      : static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string store_path = args.get_string("store", "");
  if (!store_path.empty()) {
    b.store = std::make_unique<svc::MemoStore>(store_path);
    b.result_store = std::make_unique<svc::MemoResultStore>(*b.store);
    opt.result_store = b.result_store.get();
    // A Ctrl-C mid-campaign must not lose appended results to the page
    // cache: fsync the store from the shutdown watcher.
    svc::MemoStore* store = b.store.get();
    b.store_flush_hook = ScopedShutdownHook([store] { store->flush(); });
  }
  proc::ProcOptions popt;
  popt.shard_dir = args.get_string("proc-dir", "");
  // Fork the workers before the engine exists: fork(2) from a process
  // that already has pool threads is a latent deadlock.
  b.supervisor =
      proc::make_supervisor(args.get_int32("workers", -1), seed, popt);
  opt.executor = b.supervisor.get();
  b.engine = std::make_unique<core::CampaignEngine>(seed, opt);
  return b;
}

/// One stderr line per supervised run; stdout stays byte-identical to
/// `--workers 0` so CSV/JSONL consumers (and the CI byte-diff gate) never
/// see the process pool.
void print_proc_stats(const proc::Supervisor* sup) {
  if (sup == nullptr) {
    return;
  }
  const auto s = sup->stats();
  std::cerr << "proc          " << sup->workers() << " worker(s): "
            << s.jobs_dispatched << " dispatched, " << s.results_completed
            << " completed, " << s.shard_replays << " shard replay(s), "
            << s.worker_crashes << " crash(es) (" << s.hung_workers
            << " hung), " << s.respawns << " respawn(s), " << s.redispatches
            << " redispatch(es), " << s.quarantined << " quarantined\n";
}

int cmd_run(const CliArgs& args) {
  core::Experiment e;
  e.app = perf::app_by_name(args.get_string("app", "rd"));
  e.platform = args.get_string("platform", "puma");
  e.ranks = args.get_int32("ranks", 8);
  e.cells_per_rank_axis = args.get_int32("cells", 20);
  const std::string mode = args.get_string("mode", "modeled");
  HETERO_REQUIRE(mode == "modeled" || mode == "direct",
                 "unknown --mode '" + mode + "' (expected modeled|direct)");
  e.mode = mode == "direct" ? core::Mode::kDirect : core::Mode::kModeled;
  e.ec2_spot_mix = args.get_bool("spot", false);
  if (e.ec2_spot_mix) {
    e.ec2_placement_groups = 4;
  }
  e.faults.rank_crash_rate = args.get_double("faults", 0.0);
  e.faults.launch_failure_rate = args.get_double("launch-faults", 0.0);
  e.faults.net_degrade_rate = args.get_double("degrade", 0.0);
  e.recovery.kind =
      resil::recovery_kind_by_name(args.get_string("recovery", "none"));
  e.recovery.checkpoint_every = args.get_int32("ckpt-every", 2);
  e.recovery.shrink_ranks_on_crash = args.get_bool("shrink", false);
  e.faults.reclaim_storm_rate = args.get_double("storm-rate", 0.0);
  if (args.has("rebroker")) {
    e.rebroker.enabled = true;
    e.rebroker.fallback_platform = args.get_string("rebroker", "puma");
    e.rebroker.hysteresis = args.get_double("rebroker-hysteresis", 0.15);
    e.rebroker.migrate_budget_usd =
        args.get_double("migrate-budget-usd", 0.0);
    e.rebroker.deadline_s = args.get_double("rebroker-deadline-s", 0.0);
    e.rebroker.sample_every = args.get_int32("rebroker-sample-every", 1);
  }
  for (const char* rider : {"rebroker-hysteresis", "migrate-budget-usd",
                            "rebroker-deadline-s", "rebroker-sample-every",
                            "rebroker-trail"}) {
    HETERO_REQUIRE(e.rebroker.enabled || !args.has(rider),
                   std::string("--") + rider +
                       " refines --rebroker: pass --rebroker PLATFORM as "
                       "well");
  }
  HETERO_REQUIRE(e.faults.rank_crash_rate == 0.0 ||
                     e.mode == core::Mode::kDirect,
                 "--faults injects rank crashes into the simulated MPI run: "
                 "needs --mode direct");
  HETERO_REQUIRE(e.faults.reclaim_storm_rate == 0.0 ||
                     e.mode == core::Mode::kDirect,
                 "--storm-rate injects spot reclaims into the simulated MPI "
                 "run: needs --mode direct");
  HETERO_REQUIRE(!e.rebroker.enabled || e.mode == core::Mode::kDirect,
                 "--rebroker monitors the simulated MPI run: needs "
                 "--mode direct");
  if (args.has("skew")) {
    e.skew.slow_core_factor = args.get_double("skew", 2.0);
    e.skew.slow_core_fraction = args.get_double("skew-fraction", 0.25);
    e.skew.noise_rate = args.get_double("skew-noise", 0.0);
  }
  e.balance.enabled = args.get_bool("balance", false);
  if (e.balance.enabled) {
    e.balance.mode = args.get_string("balance-mode", "repartition");
    e.balance.threshold = args.get_double("balance-threshold", 1.25);
  }
  HETERO_REQUIRE(!args.has("skew") || e.mode == core::Mode::kDirect,
                 "--skew stretches per-rank compute charges in the simulated "
                 "MPI run: needs --mode direct");
  HETERO_REQUIRE(args.has("skew") || (!args.has("skew-fraction") &&
                                      !args.has("skew-noise")),
                 "--skew-fraction/--skew-noise refine --skew: pass --skew "
                 "FACTOR as well");
  HETERO_REQUIRE(!e.balance.enabled || e.mode == core::Mode::kDirect,
                 "--balance rebalances the simulated MPI run: needs "
                 "--mode direct");
  HETERO_REQUIRE(e.balance.enabled || (!args.has("balance-threshold") &&
                                       !args.has("balance-mode")),
                 "--balance-threshold/--balance-mode tune --balance: pass "
                 "--balance as well");
  HETERO_REQUIRE(!(e.balance.enabled && e.recovery.shrink_ranks_on_crash),
                 "--balance conflicts with --shrink: rebalance weights are "
                 "keyed to the original rank count");
  HETERO_REQUIRE(!(e.balance.enabled && e.rebroker.enabled),
                 "--balance conflicts with --rebroker: at most one mid-run "
                 "controller may rebuild the job");
  if (e.mode == core::Mode::kDirect &&
      e.cells_per_rank_axis == 20 && !args.has("cells")) {
    e.cells_per_rank_axis = 4;  // keep direct runs laptop-sized by default
  }
  e.direct_steps = args.get_int32("steps", 3);
  HETERO_REQUIRE(e.direct_steps >= 1, "--steps needs at least one time step");
  HETERO_REQUIRE(!args.has("steps") || e.mode == core::Mode::kDirect,
                 "--steps sets the simulated MPI run's step count: needs "
                 "--mode direct");
  e.trace_path = args.get_string("trace", "");
  e.metrics_path = args.get_string("metrics", "");
  HETERO_REQUIRE(e.trace_path.empty() || e.mode == core::Mode::kDirect,
                 "--trace records the simulated MPI run: needs --mode direct");
  auto bundle = make_engine(args, e.mode == core::Mode::kDirect);
  const auto r = bundle.engine->run(e);
  print_proc_stats(bundle.supervisor.get());
  obs::BenchReporter reporter(args, "heterolab_run");
  if (reporter.enabled()) {
    obs::Json record = obs::Json::object();
    record.set("app", args.get_string("app", "rd"));
    record.set("platform", e.platform);
    record.set("procs", static_cast<double>(e.ranks));
    record.set("mode",
               e.mode == core::Mode::kDirect ? "direct" : "modeled");
    record.set("launched", r.launched);
    if (r.launched) {
      record.set("hosts", static_cast<double>(r.hosts));
      record.set("queue_wait_s", r.queue_wait_s);
      record.set("provisioning_hours", r.provisioning_hours);
      record.set("assembly_s", r.iteration.assembly_s);
      record.set("precond_s", r.iteration.preconditioner_s);
      record.set("solve_s", r.iteration.solve_s);
      record.set("total_s", r.iteration.total_s);
      record.set("iters", r.iteration.solver_iterations);
      record.set("cost_usd", r.cost_per_iteration_usd);
    } else {
      record.set("failure_reason", r.failure_reason);
    }
    if (e.faults.enabled()) {
      record.set("attempts", static_cast<double>(r.resil.attempts));
      record.set("faults_injected",
                 static_cast<double>(r.resil.faults_injected));
      record.set("launch_retries",
                 static_cast<double>(r.resil.launch_retries));
      record.set("recovered", r.resil.recovered);
      record.set("retry_delay_s", r.resil.retry_delay_s);
      record.set("wasted_cost_usd", r.resil.wasted_cost_usd);
      record.set("final_ranks", static_cast<double>(r.resil.final_ranks));
    }
    if (e.rebroker.enabled) {
      record.set("rebroker_samples",
                 static_cast<double>(r.rebroker.samples));
      record.set("rebroker_decisions",
                 static_cast<double>(r.rebroker.decisions));
      record.set("rebroker_migrations",
                 static_cast<double>(r.rebroker.migrations));
      record.set("rebroker_storms",
                 static_cast<double>(r.rebroker.storms));
      record.set("final_platform", r.rebroker.final_platform);
      record.set("migration_wait_s", r.rebroker.migration_wait_s);
      record.set("migration_cost_usd", r.rebroker.migration_cost_usd);
    }
    if (e.balance.enabled) {
      record.set("lb_checks", static_cast<double>(r.balance.checks));
      record.set("lb_rebalances",
                 static_cast<double>(r.balance.rebalances));
      record.set("lb_last_imbalance", r.balance.last_imbalance);
    }
    reporter.add_record(std::move(record));
  }
  const std::string trail_path = args.get_string("rebroker-trail", "");
  if (!trail_path.empty()) {
    std::ofstream trail(trail_path, std::ios::trunc);
    HETERO_REQUIRE(trail.good(),
                   "cannot open --rebroker-trail path: " + trail_path);
    for (const auto& line : r.rebroker.trail) {
      trail << line << "\n";
    }
  }
  if (!r.launched) {
    // Diagnostics go to stderr so a piped stdout (e.g. --json to a file
    // plus shell redirection) stays machine-parseable.
    std::cerr << "LAUNCH FAILED on " << e.platform << ": "
              << r.failure_reason << "\n";
    return 1;
  }
  std::cout << "platform      " << e.platform << " (" << r.hosts
            << " hosts)\n"
            << "provisioning  " << fmt_double(r.provisioning_hours, 1)
            << " man-hours (one-time)\n"
            << "queue wait    " << format_seconds(r.queue_wait_s) << "\n"
            << "assembly      " << fmt_double(r.iteration.assembly_s, 3)
            << " s/iter\n"
            << "precondition  "
            << fmt_double(r.iteration.preconditioner_s, 3) << " s/iter\n"
            << "solve         " << fmt_double(r.iteration.solve_s, 3)
            << " s/iter (" << fmt_double(r.iteration.solver_iterations, 0)
            << " Krylov iters)\n"
            << "total         " << fmt_double(r.iteration.total_s, 3)
            << " s/iter\n"
            << "cost          " << fmt_usd(r.cost_per_iteration_usd)
            << " per iteration\n";
  if (r.spot_hosts > 0) {
    std::cout << "spot hosts    " << r.spot_hosts << " of " << r.hosts
              << " (est. all-spot cost "
              << fmt_usd(r.est_cost_per_iteration_usd) << "/iter)\n";
  }
  if (e.mode == core::Mode::kDirect) {
    std::cout << "direct run    nodal error "
              << fmt_double(r.nodal_error, 10) << ", solver "
              << (r.solver_converged ? "converged" : "DID NOT CONVERGE")
              << "\n";
  }
  if (e.faults.enabled()) {
    std::cout << "resilience    " << r.resil.attempts << " attempt(s), "
              << r.resil.faults_injected << " fault(s), "
              << r.resil.launch_retries << " launch retr"
              << (r.resil.launch_retries == 1 ? "y" : "ies") << ", policy "
              << resil::to_string(e.recovery.kind) << "\n";
    if (r.resil.faults_injected > 0) {
      std::cout << "              " << r.resil.steps_recovered
                << " step(s) recovered from checkpoints, "
                << r.resil.steps_wasted << " wasted; backoff "
                << format_seconds(r.resil.retry_delay_s) << ", wasted cost "
                << fmt_usd(r.resil.wasted_cost_usd) << ", finished on "
                << r.resil.final_ranks << " ranks\n";
    }
  }
  if (e.rebroker.enabled) {
    std::cout << "rebroker      " << r.rebroker.samples << " sample(s), "
              << r.rebroker.decisions << " decision(s), "
              << r.rebroker.migrations << " migration(s), "
              << r.rebroker.storms << " storm(s); finished on "
              << r.rebroker.final_platform << "\n";
    if (r.rebroker.migrations > 0) {
      std::cout << "              migration wait "
                << format_seconds(r.rebroker.migration_wait_s)
                << ", remaining-work cost "
                << fmt_usd(r.rebroker.migration_cost_usd) << "\n";
    }
  }
  if (e.balance.enabled) {
    std::cout << "balance       " << r.balance.checks << " check(s), "
              << r.balance.rebalances << " rebalance(s), last imbalance "
              << fmt_double(r.balance.last_imbalance, 3) << " ("
              << e.balance.mode << ")\n";
  }
  return 0;
}

int cmd_report(const std::string& which, const CliArgs& args) {
  auto bundle = make_engine(args);
  auto& engine = *bundle.engine;
  const auto procs = core::paper_process_counts();
  const Table table = [&]() -> Table {
    if (which == "fig4") {
      return core::weak_scaling_figure(engine,
                                       perf::AppKind::kReactionDiffusion,
                                       procs);
    }
    if (which == "fig5") {
      return core::weak_scaling_figure(engine, perf::AppKind::kNavierStokes,
                                       procs);
    }
    if (which == "table2") {
      return core::table2_ec2_assemblies(engine, procs);
    }
    if (which == "fig6") {
      return core::cost_figure(engine, perf::AppKind::kReactionDiffusion,
                               procs);
    }
    if (which == "fig7") {
      return core::cost_figure(engine, perf::AppKind::kNavierStokes, procs);
    }
    HETERO_REQUIRE(which == "summary", "unknown report command: " + which);
    return core::summary_table(engine, args.get_int32("ranks", 125));
  }();
  render(table, args);
  print_proc_stats(bundle.supervisor.get());
  obs::BenchReporter reporter(args, "heterolab_" + which);
  reporter.add_table(table);
  return 0;
}

int cmd_campaign(const CliArgs& args) {
  core::CampaignConfig config;
  config.ranks = args.get_int32("ranks", 512);
  config.cells_per_rank_axis = args.get_int32("cells", 20);
  config.iterations = args.get_int32("iterations", 500);
  config.checkpoint_interval = args.get_int32("ckpt", 25);
  config.use_spot = !args.get_bool("ondemand", false);
  config.spot_bid_usd = args.get_double("bid", 0.70);
  config.faults.reclaim_storm_rate = args.get_double("storm-rate", 0.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto r = core::simulate_ec2_campaign(config);
  std::cout << "strategy       "
            << (config.use_spot ? "spot (bid $" +
                                      fmt_double(config.spot_bid_usd, 2) + ")"
                                : "on-demand")
            << "\n"
            << "wall clock     " << format_seconds(r.wall_clock_s) << "\n"
            << "billed         " << fmt_usd(r.billed_usd)
            << " (accrued " << fmt_usd(r.accrued_usd) << ")\n"
            << "interruptions  " << r.interruptions << " ("
            << r.iterations_redone << " iterations redone)\n"
            << "checkpoints    " << r.checkpoints_written << "\n"
            << "spot hosts     " << r.initial_spot_hosts
            << " at first acquisition\n";
  return 0;
}

svc::ServiceOptions service_options(const CliArgs& args) {
  svc::ServiceOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  options.jobs = args.get_int32("jobs", 0);
  options.store_path = args.get_string("store", "");
  options.budget_capacity = args.get_double("budget-capacity", 0.0);
  options.budget_refill = args.get_double("budget-refill", 0.0);
  return options;
}

void print_serve_stats(const svc::ServeStats& stats, svc::Service& service) {
  // Summary goes to stderr: stdout is the response stream.
  const auto memo = service.store().stats();
  std::cerr << "served " << stats.served << " request(s), " << stats.pings
            << " ping(s), " << stats.errors << " error(s), " << stats.busy
            << " busy, " << stats.throttled << " throttled; memo "
            << memo.hits << "/" << memo.lookups << " hit(s), "
            << memo.appends << " append(s)\n";
}

/// Batch advisory mode: answer a JSONL request file through the same
/// parser, memo store, and response schema as the daemon.
int cmd_broker_batch(const CliArgs& args) {
  for (const char* flag :
       {"app", "elements", "ranks", "cells", "iterations", "deadline-h",
        "budget-usd", "objective", "risk", "risk-budget-usd", "ported",
        "top", "csv"}) {
    HETERO_REQUIRE(!args.has(flag),
                   std::string("--requests reads every job field from the "
                               "JSONL file; drop --") +
                       flag);
  }
  const std::string path = args.get_string("requests", "");
  std::ifstream in(path);
  HETERO_REQUIRE(in.good(), "cannot open requests file: " + path);
  svc::Service service(service_options(args));
  const int hook = support::add_shutdown_hook([&service] {
    service.store().flush();
    std::cerr << "broker: interrupted; memo store flushed\n";
  });
  const auto stats = svc::serve_pipe(service, in, std::cout);
  support::remove_shutdown_hook(hook);
  print_serve_stats(stats, service);
  return 0;
}

int cmd_serve(const CliArgs& args) {
  svc::Service service(service_options(args));
  // A SIGINT/SIGTERM against the daemon must not strand appended memo
  // records in the page cache; the guard's watcher runs this, prints its
  // own stderr notice, and _exits 128+signo.
  const int hook = support::add_shutdown_hook([&service] {
    service.store().flush();
    std::cerr << "serve: interrupted; memo store flushed\n";
  });
  svc::ServeOptions serve_options;
  serve_options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 1024));
  serve_options.reject_when_full = args.get_bool("reject-when-full", false);
  serve_options.workers = args.get_int32("workers", 1);
  const std::string socket_path = args.get_string("socket", "");
  const auto stats =
      socket_path.empty()
          ? svc::serve_pipe(service, std::cin, std::cout, serve_options)
          : svc::serve_unix_socket(service, socket_path, serve_options);
  support::remove_shutdown_hook(hook);
  print_serve_stats(stats, service);
  return 0;
}

int cmd_broker(const CliArgs& args) {
  if (args.has("requests")) {
    return cmd_broker_batch(args);
  }
  HETERO_REQUIRE(!args.has("store"),
                 "--store memoizes the answers of a request file: pass "
                 "--requests FILE.jsonl as well");
  broker::JobRequest request;
  request.app = perf::app_by_name(args.get_string("app", "rd"));
  request.total_elements = args.get_int("elements", 0);
  request.ranks = args.get_int32("ranks", 0);
  request.cells_per_rank_axis = args.get_int32("cells", 20);
  request.iterations = args.get_int32("iterations", 100);
  if (args.has("deadline-h")) {
    request.deadline_h = args.get_double("deadline-h", 0.0);
  }
  if (args.has("budget-usd")) {
    request.budget_usd = args.get_double("budget-usd", 0.0);
  }
  request.risk_tolerance = args.get_double("risk", 0.5);
  if (args.has("risk-budget-usd")) {
    request.risk_budget_usd = args.get_double("risk-budget-usd", 0.0);
  }
  request.include_provisioning = !args.get_bool("ported", false);

  const auto objective =
      broker::objective_by_name(args.get_string("objective", "effective"));
  broker::Broker advisor(
      static_cast<std::uint64_t>(args.get_int("seed", 42)),
      args.get_int32("jobs", 0));
  const auto rec = advisor.recommend(request, objective);

  std::cout << "objective     " << objective.name << " — "
            << objective.description << "\n"
            << "candidates    " << rec.ranked.size() + rec.rejected.size()
            << " considered, " << rec.ranked.size() << " feasible\n";
  if (rec.has_winner()) {
    const auto& w = rec.winner();
    std::cout << "recommended   " << w.candidate.label() << " — "
              << format_seconds(w.effective_s) << " effective, "
              << fmt_usd(w.cost_usd) << "\n\n";
  } else if (rec.rejected.empty()) {
    std::cout << "recommended   nothing to rank: no deployment candidate "
                 "fits this problem (each rank needs >= 2 cells per axis; "
                 "check --elements/--ranks)\n\n";
  } else {
    std::cout << "recommended   nothing satisfies the constraints; every "
                 "rejection is explained below\n\n";
  }
  const auto limit =
      static_cast<std::size_t>(args.get_int("top", 12));
  std::cout << "--- ranked candidates (top " << limit << ") ---\n";
  render(broker::recommendation_table(rec, limit), args);
  std::cout << "\n--- time/cost Pareto frontier ---\n";
  render(broker::frontier_table(rec), args);
  if (!rec.rejected.empty()) {
    std::cout << "\n--- rejected candidates ---\n";
    render(broker::rejection_table(rec), args);
  }
  return rec.has_winner() ? 0 : 1;
}

int cmd_provision(const CliArgs& args) {
  const std::string only = args.get_string("platform", "");
  for (const auto* spec : platform::all_platforms()) {
    if (!only.empty() && spec->name != only) {
      continue;
    }
    const auto plan = provision::plan_provisioning(*spec);
    std::cout << "=== " << spec->name << " ("
              << fmt_double(plan.total_hours(), 1) << " man-hours) ===\n";
    plan.to_table().render_text(std::cout);
    std::cout << "\n";
  }
  return 0;
}

/// The standing grid benchmark: expand the matrix (preset or a sampled
/// sub-matrix), stream it through the engine shard by shard, and write the
/// heterolab-grid-v1 report. stdout (or --out) carries only the report —
/// progress and engine/backend stats go to stderr, so the report is
/// byte-identical at any --jobs/--workers level and across an interrupt +
/// --store resume. The engine always runs under the fixed grid runner
/// seed; --seed perturbs only the matrix's stochastic cells.
int cmd_grid(const CliArgs& args) {
  HETERO_REQUIRE(!(args.has("matrix") && args.has("cells")),
                 "--matrix picks a preset cell set; it conflicts with "
                 "--cells N (pick one)");
  HETERO_REQUIRE(!args.has("sample-seed") || args.has("cells"),
                 "--sample-seed seeds the --cells sample: pass --cells N "
                 "as well");
  HETERO_REQUIRE(!args.has("abort-after-shards") || args.has("store"),
                 "--abort-after-shards interrupts a resumable run: pass "
                 "--store PATH as well");
  grid::MatrixSpec spec = grid::preset(args.get_string("matrix", "full"));
  if (args.has("cells")) {
    const long long n = args.get_int("cells", 0);
    HETERO_REQUIRE(n >= 1, "--cells needs at least one cell");
    spec.name = "custom";
    spec.sample_cells = n;
    spec.sample_seed =
        static_cast<std::uint64_t>(args.get_int("sample-seed", 7));
  }
  spec.matrix_seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  spec.iterations = args.get_int32("iterations", 100);
  HETERO_REQUIRE(spec.iterations >= 1, "--iterations must be positive");
  const std::vector<grid::GridCell> cells = grid::expand(spec);

  grid::GridRunOptions ropt;
  ropt.shard_size = args.get_int32("shard-size", 512);
  HETERO_REQUIRE(ropt.shard_size >= 1, "--shard-size must be positive");
  ropt.abort_after_shards = args.get_int32("abort-after-shards", 0);
  HETERO_REQUIRE(ropt.abort_after_shards >= 0,
                 "--abort-after-shards must be >= 0");
  ropt.progress = [](int shard, int shards, std::int64_t done,
                     std::int64_t total) {
    std::cerr << "grid: shard " << shard << "/" << shards << " done ("
              << done << "/" << total << " cells)\n";
  };

  auto bundle = make_engine(args, false, grid::kGridRunnerSeed);
  const std::vector<core::ExperimentResult> results =
      grid::run_cells(*bundle.engine, cells, ropt);
  const std::vector<obs::Json> records =
      grid::build_report(spec, cells, results, grid::kGridRunnerSeed);
  grid::write_report(records, args.get_string("out", "-"));

  std::int64_t launched = 0;
  for (const auto& r : results) {
    launched += r.launched ? 1 : 0;
  }
  const auto stats = bundle.engine->stats();
  std::cerr << "grid: " << cells.size() << " cell(s) of the " << spec.name
            << " matrix, " << launched << " launched, " << stats.cache_hits
            << " cache hit(s), " << stats.store_hits << " store hit(s)\n";
  print_proc_stats(bundle.supervisor.get());
  return 0;
}

int usage() {
  std::cout <<
      "usage: heterolab <command> [flags]\n"
      "  platforms [--csv]                 Table I capability matrix\n"
      "  run --app rd|ns --platform P --ranks N [--mode direct|modeled]\n"
      "      [--cells C] [--spot] [--seed S] [--jobs J] [--json OUT.jsonl]\n"
      "      [--trace OUT.trace.json] [--metrics OUT.metrics.json]\n"
      "      [--faults RATE] [--launch-faults RATE] [--degrade RATE]\n"
      "      [--recovery none|scratch|ckpt] [--ckpt-every K] [--shrink]\n"
      "      [--storm-rate RATE] [--rebroker PLATFORM]\n"
      "      [--rebroker-hysteresis H] [--migrate-budget-usd D]\n"
      "      [--rebroker-deadline-s S] [--rebroker-sample-every K]\n"
      "      [--rebroker-trail OUT.jsonl]\n"
      "      [--skew FACTOR] [--skew-fraction F] [--skew-noise RATE]\n"
      "      [--balance] [--balance-mode repartition|diffuse]\n"
      "      [--balance-threshold X] [--steps N]\n"
      "      [--workers W] [--store PATH] [--proc-dir DIR]\n"
      "  fig4 | fig5 | table2 | fig6 | fig7 [--csv] [--seed S] [--jobs J]\n"
      "      [--json OUT.jsonl] [--workers W] [--store PATH]\n"
      "      [--proc-dir DIR]\n"
      "  summary [--ranks N] [--csv] [--seed S] [--jobs J]\n"
      "      [--json OUT.jsonl] [--workers W] [--store PATH]\n"
      "      [--proc-dir DIR]\n"
      "  campaign --ranks N --iterations K [--ondemand] [--ckpt I]\n"
      "      [--bid USD] [--cells C] [--storm-rate RATE] [--seed S]\n"
      "  grid [--matrix full|ci|smoke | --cells N [--sample-seed S]]\n"
      "      [--out REPORT.jsonl] [--seed S] [--iterations K]\n"
      "      [--shard-size C] [--jobs J] [--workers W] [--store PATH]\n"
      "      [--proc-dir DIR] [--abort-after-shards K]\n"
      "      the standing grid benchmark: expand the full platform x ranks\n"
      "      x solver/element x faults x skew x objective cross product and\n"
      "      emit the heterolab-grid-v1 report (stdout, or --out); resumes\n"
      "      from --store byte-identically (see docs/grid_benchmark.md)\n"
      "  provision [--platform P]\n"
      "  broker --app rd|ns [--elements E | --ranks N [--cells C]]\n"
      "      [--iterations K] [--deadline-h H] [--budget-usd D]\n"
      "      [--objective time|cost|effective|blend] [--risk R]\n"
      "      [--risk-budget-usd D] [--ported] [--top N] [--seed S]\n"
      "      [--jobs J] [--csv]\n"
      "  broker --requests FILE.jsonl [--store PATH] [--seed S] [--jobs J]\n"
      "      answer a heterolab-svc-v1 request file in batch\n"
      "  serve [--store PATH] [--socket PATH] [--queue N]\n"
      "      [--reject-when-full] [--workers W] [--jobs J] [--seed S]\n"
      "      [--budget-capacity T] [--budget-refill T]\n"
      "      advisory daemon: JSONL requests on stdin (or the Unix socket),\n"
      "      JSONL decisions on stdout (see docs/service.md)\n"
      "--jobs J evaluates experiments on J worker threads (output is\n"
      "byte-identical at any J). Default: HETEROLAB_JOBS if set, else the\n"
      "hardware thread count; direct-mode runs default to 1.\n"
      "--workers W forks W supervised worker *processes* (heartbeats,\n"
      "crash retry, poison-job quarantine; stdout stays byte-identical at\n"
      "any W). Default: HETEROLAB_WORKERS if set, else 0 (in-process).\n"
      "--store PATH persists results across restarts; --proc-dir DIR keeps\n"
      "worker shards so an interrupted campaign resumes incrementally.\n"
      "See docs/campaign_scaleout.md.\n";
  return 2;
}

/// Rejects flags the subcommand does not understand (prints usage, exits
/// non-zero) instead of silently ignoring them.
bool flags_understood(const CliArgs& args,
                      const std::vector<std::string>& allowed) {
  bool ok = true;
  for (const auto& name : args.flag_names()) {
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      std::cerr << "unknown flag for this command: --" << name << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetero;
  // Installed first, while the process is single-threaded: Ctrl-C against
  // any subcommand runs the registered cleanup hooks (flush + fsync
  // writers, kill + reap campaign workers), prints a clear stderr message,
  // and exits 128+signo instead of dying mid-write.
  support::ShutdownGuard shutdown_guard;
  try {
    const CliArgs args(argc, argv);
    if (args.positional().size() != 1) {
      if (args.positional().size() > 1) {
        std::cerr << "expected exactly one command, got: ";
        for (const auto& p : args.positional()) {
          std::cerr << p << " ";
        }
        std::cerr << "\n";
      }
      return usage();
    }
    const std::string command = args.positional().front();
    if (command == "platforms") {
      return flags_understood(args, {"csv"}) ? cmd_platforms(args) : usage();
    }
    if (command == "run") {
      return flags_understood(args, {"app", "platform", "ranks", "cells",
                                     "mode", "spot", "seed", "jobs", "json",
                                     "trace", "metrics", "faults",
                                     "launch-faults", "degrade", "recovery",
                                     "ckpt-every", "shrink", "storm-rate",
                                     "rebroker", "rebroker-hysteresis",
                                     "migrate-budget-usd",
                                     "rebroker-deadline-s",
                                     "rebroker-sample-every",
                                     "rebroker-trail", "skew",
                                     "skew-fraction", "skew-noise",
                                     "balance", "balance-mode",
                                     "balance-threshold", "steps",
                                     "workers", "store", "proc-dir"})
                 ? cmd_run(args)
                 : usage();
    }
    if (command == "fig4" || command == "fig5" || command == "table2" ||
        command == "fig6" || command == "fig7" || command == "summary") {
      const std::vector<std::string> allowed =
          command == "summary"
              ? std::vector<std::string>{"csv", "seed", "ranks", "jobs",
                                         "json", "workers", "store",
                                         "proc-dir"}
              : std::vector<std::string>{"csv", "seed", "jobs", "json",
                                         "workers", "store", "proc-dir"};
      return flags_understood(args, allowed) ? cmd_report(command, args)
                                             : usage();
    }
    if (command == "campaign") {
      return flags_understood(args, {"ranks", "iterations", "ckpt",
                                     "ondemand", "bid", "cells", "seed",
                                     "storm-rate"})
                 ? cmd_campaign(args)
                 : usage();
    }
    if (command == "grid") {
      return flags_understood(args, {"matrix", "cells", "sample-seed",
                                     "out", "seed", "iterations",
                                     "shard-size", "abort-after-shards",
                                     "jobs", "workers", "store", "proc-dir"})
                 ? cmd_grid(args)
                 : usage();
    }
    if (command == "provision") {
      return flags_understood(args, {"platform"}) ? cmd_provision(args)
                                                  : usage();
    }
    if (command == "broker") {
      return flags_understood(
                 args, {"app", "elements", "ranks", "cells", "iterations",
                        "deadline-h", "budget-usd", "objective", "risk",
                        "risk-budget-usd", "ported", "top", "seed", "jobs",
                        "csv", "requests", "store"})
                 ? cmd_broker(args)
                 : usage();
    }
    if (command == "serve") {
      return flags_understood(args, {"store", "socket", "queue",
                                     "reject-when-full", "workers", "jobs",
                                     "seed", "budget-capacity",
                                     "budget-refill"})
                 ? cmd_serve(args)
                 : usage();
    }
    std::cerr << "unknown command: " << command << "\n";
    return usage();
  } catch (const Error& e) {
    std::cerr << "heterolab: " << e.what() << "\n";
    return 1;
  }
}
