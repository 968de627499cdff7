// Tests for the experiment runner and the paper-artifact generators.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/campaign.hpp"
#include "core/campaign_engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "obs/bench_io.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"

namespace hetero::core {
namespace {

TEST(Runner, ModeledRdOnPuma) {
  ExperimentRunner runner(42);
  Experiment e;
  e.platform = "puma";
  e.ranks = 27;
  const auto r = runner.run(e);
  EXPECT_TRUE(r.launched);
  EXPECT_GT(r.iteration.total_s, 0.0);
  EXPECT_GT(r.cost_per_iteration_usd, 0.0);
  EXPECT_GT(r.queue_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(r.provisioning_hours, 0.0);  // the home platform
  EXPECT_EQ(r.hosts, 7);  // 27 ranks on 4-core nodes
}

TEST(Runner, LaunchFailuresCarryTheReason) {
  ExperimentRunner runner(42);
  Experiment e;
  e.platform = "lagrange";
  e.ranks = 512;
  const auto r = runner.run(e);
  EXPECT_FALSE(r.launched);
  EXPECT_NE(r.failure_reason.find("IB"), std::string::npos);
}

TEST(Runner, Ec2WholeNodeBillingPenalizesSmallJobs) {
  ExperimentRunner runner(42);
  Experiment one;
  one.platform = "ec2";
  one.ranks = 1;
  const auto r1 = runner.run(one);
  // One rank still pays a full cc2.8xlarge: cost rate = $2.40/h.
  const double implied_hourly =
      r1.cost_per_iteration_usd / (r1.iteration.total_s / 3600.0);
  EXPECT_NEAR(implied_hourly, 2.40, 1e-6);
}

TEST(Runner, Ec2MixUsesSpotPlusOnDemandFill) {
  ExperimentRunner runner(42);
  Experiment mix;
  mix.platform = "ec2";
  mix.ranks = 1000;
  mix.ec2_spot_mix = true;
  mix.ec2_placement_groups = 4;
  const auto r = runner.run(mix);
  EXPECT_TRUE(r.launched);
  EXPECT_EQ(r.hosts, 63);
  EXPECT_GT(r.spot_hosts, 0);
  EXPECT_LT(r.spot_hosts, 63);  // never a full spot assembly
  // Estimated (all-spot) cost is ~4.4x below the on-demand rate.
  EXPECT_NEAR(r.est_cost_per_iteration_usd * 2.40 / 0.54,
              63 * 2.40 * r.iteration.total_s / 3600.0, 1e-6);
}

TEST(Runner, MixAndFullTimesAreComparable) {
  // Table II's finding: a single placement group buys no performance.
  ExperimentRunner runner(42);
  Experiment full;
  full.platform = "ec2";
  full.ranks = 512;
  const auto rf = runner.run(full);
  Experiment mix = full;
  mix.ec2_spot_mix = true;
  mix.ec2_placement_groups = 4;
  const auto rm = runner.run(mix);
  EXPECT_NEAR(rm.iteration.total_s, rf.iteration.total_s,
              0.05 * rf.iteration.total_s);
}

TEST(Runner, DirectModeRunsTheRealApplication) {
  ExperimentRunner runner(42);
  Experiment e;
  e.platform = "lagrange";
  e.ranks = 8;
  e.mode = Mode::kDirect;
  e.cells_per_rank_axis = 3;  // 6^3 global cells, cheap
  e.direct_steps = 2;
  const auto r = runner.run(e);
  EXPECT_TRUE(r.launched);
  EXPECT_TRUE(r.solver_converged);
  EXPECT_LT(r.nodal_error, 1e-6);  // the RD exactness oracle
  EXPECT_GT(r.iteration.assembly_s, 0.0);
  EXPECT_GT(r.iteration.solve_s, 0.0);
}

TEST(Runner, DirectFaultRecoversViaCheckpointRestart) {
  // Scan a fixed seed window for a run where a crash fires *after* a
  // checkpoint was written; the policy must ride it out and the recovered
  // trajectory must still satisfy the RD exactness oracle.
  ExperimentRunner runner(42);
  Experiment base;
  base.platform = "puma";
  base.ranks = 8;
  base.mode = Mode::kDirect;
  base.cells_per_rank_axis = 3;
  base.direct_steps = 6;
  base.faults.rank_crash_rate = 0.05;
  base.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  base.recovery.checkpoint_every = 2;
  base.recovery.max_attempts = 10;

  bool found = false;
  for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
    Experiment e = base;
    e.seed = seed;
    const auto r = runner.run(e);
    if (!r.launched || r.resil.steps_recovered == 0) {
      continue;
    }
    found = true;
    EXPECT_TRUE(r.resil.recovered);
    EXPECT_GT(r.resil.faults_injected, 0);
    EXPECT_GT(r.resil.attempts, 1);
    EXPECT_GT(r.resil.checkpoints_written, 0);
    EXPECT_GT(r.resil.retry_delay_s, 0.0);
    EXPECT_GT(r.resil.wasted_sim_s, 0.0);
    EXPECT_EQ(r.resil.final_ranks, 8);
    EXPECT_TRUE(r.solver_converged);
    EXPECT_LT(r.nodal_error, 1e-6);  // oracle holds across the restart

    // The fault-free run of the same experiment gives the same trajectory:
    // checkpoint restore is exact, so the completed records agree.
    Experiment calm = e;
    calm.faults = resil::FaultSpec{};
    calm.recovery = resil::RecoveryPolicy{};
    const auto rc = runner.run(calm);
    ASSERT_TRUE(rc.launched);
    EXPECT_NEAR(r.nodal_error, rc.nodal_error, 1e-12);
    EXPECT_NEAR(r.iteration.total_s, rc.iteration.total_s, 1e-9);
  }
  EXPECT_TRUE(found)
      << "no seed in 1..20 produced a post-checkpoint crash";
}

TEST(Runner, DirectFaultShrinksToFewerRanksAndStillMatchesTheOracle) {
  // A crash under shrink_ranks_on_crash restarts on the next smaller cube
  // (8 -> 1); the gid-keyed checkpoint redistributes the state and the
  // survivors finish the *same* global problem.
  ExperimentRunner runner(42);
  Experiment base;
  base.platform = "puma";
  base.ranks = 8;
  base.mode = Mode::kDirect;
  base.cells_per_rank_axis = 3;
  base.direct_steps = 6;
  base.faults.rank_crash_rate = 0.05;
  base.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  base.recovery.checkpoint_every = 2;
  base.recovery.max_attempts = 10;
  base.recovery.shrink_ranks_on_crash = true;

  bool found = false;
  for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
    Experiment e = base;
    e.seed = seed;
    const auto r = runner.run(e);
    if (!r.launched || r.resil.faults_injected == 0) {
      continue;
    }
    found = true;
    EXPECT_EQ(r.resil.final_ranks, 1);  // 2^3 shrank to 1^3
    EXPECT_TRUE(r.solver_converged);
    EXPECT_LT(r.nodal_error, 1e-6);  // same oracle on fewer ranks
  }
  EXPECT_TRUE(found) << "no seed in 1..20 crashed at all";
}

TEST(Runner, UnrecoveredFaultReportsFailureNotAnException) {
  ExperimentRunner runner(42);
  Experiment e;
  e.platform = "puma";
  e.ranks = 8;
  e.mode = Mode::kDirect;
  e.cells_per_rank_axis = 3;
  e.direct_steps = 4;
  e.faults.rank_crash_rate = 1.0;  // every attempt dies at step 0
  e.recovery.kind = resil::RecoveryKind::kNone;
  e.trace_path = ::testing::TempDir() + "core_test_unrecovered.trace.json";
  std::remove(e.trace_path.c_str());
  const auto r = runner.run(e);
  EXPECT_FALSE(r.launched);
  EXPECT_NE(r.failure_reason.find("injected fault"), std::string::npos);
  EXPECT_NE(r.failure_reason.find("unrecovered"), std::string::npos);
  EXPECT_EQ(r.resil.faults_injected, 1);

  // A failed run still writes its trace, and the trace shows the crash.
  const auto records = obs::read_jsonl(e.trace_path);  // one JSON document
  ASSERT_EQ(records.size(), 1u);
  const obs::Json& events = records[0].at("traceEvents");
  bool crashed = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    crashed = crashed || events[i].at("name").as_string() == "rank_crash";
  }
  EXPECT_TRUE(crashed) << "no rank_crash instant in " << e.trace_path;
  std::remove(e.trace_path.c_str());
  e.trace_path.clear();

  // Scratch restarts cannot make progress either when every step-0 cell is
  // armed — the policy gives up after max_attempts, not an infinite loop.
  e.recovery.kind = resil::RecoveryKind::kRestartScratch;
  e.recovery.max_attempts = 3;
  const auto rs = runner.run(e);
  EXPECT_FALSE(rs.launched);
  EXPECT_EQ(rs.resil.attempts, 3);
  EXPECT_EQ(rs.resil.faults_injected, 3);
}

TEST(Runner, TransientLaunchFailuresAreRetriedWithBackoff) {
  ExperimentRunner runner(42);
  Experiment base;
  base.platform = "puma";
  base.ranks = 27;
  base.faults.launch_failure_rate = 0.5;
  base.recovery.kind = resil::RecoveryKind::kRestartScratch;
  base.recovery.max_attempts = 8;

  bool found = false;
  for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
    Experiment e = base;
    e.seed = seed;
    const auto r = runner.run(e);
    if (!r.launched || r.resil.launch_retries == 0) {
      continue;
    }
    found = true;
    EXPECT_GT(r.resil.retry_delay_s, 0.0);
    // The backoff is charged on top of the (re-queued) scheduler wait.
    EXPECT_GT(r.queue_wait_s, r.resil.retry_delay_s);
  }
  EXPECT_TRUE(found) << "no seed in 1..20 hit a transient launch failure";
}

TEST(Runner, LaunchFailureRateOneGivesUpWithTheReason) {
  ExperimentRunner runner(42);
  Experiment e;
  e.platform = "puma";
  e.ranks = 27;
  e.faults.launch_failure_rate = 1.0;
  e.recovery.kind = resil::RecoveryKind::kRestartScratch;
  e.recovery.max_attempts = 3;
  const auto r = runner.run(e);
  EXPECT_FALSE(r.launched);
  EXPECT_NE(r.failure_reason.find("transient launch failure"),
            std::string::npos);
  EXPECT_EQ(r.resil.launch_retries, 2);  // 3 attempts = 2 retries
}

TEST(Runner, DirectModeRequiresCubicRanks) {
  ExperimentRunner runner(42);
  Experiment e;
  e.platform = "puma";
  e.ranks = 6;
  e.mode = Mode::kDirect;
  EXPECT_THROW(runner.run(e), Error);
}

TEST(Report, PaperProcessCountsAreTheCubes) {
  const auto procs = paper_process_counts();
  ASSERT_EQ(procs.size(), 10u);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const int k = static_cast<int>(i) + 1;
    EXPECT_EQ(procs[i], k * k * k);
  }
}

TEST(Report, WeakScalingFigureCoversAllPlatformsAndSizes) {
  CampaignEngine engine(42);
  const std::vector<int> procs{1, 125, 216, 512, 1000};
  const Table table = weak_scaling_figure(
      engine, perf::AppKind::kReactionDiffusion, procs);
  EXPECT_EQ(table.rows(), 4 * procs.size());
  // Failures appear exactly where the paper hit them.
  int failures = 0;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    failures += table.row(r).back().rfind("FAILED", 0) == 0;
  }
  // puma: 216, 512, 1000 (3); ellipse: 1000 (1); lagrange: 512, 1000 (2);
  // ec2: none -> 6 failures for this process list.
  EXPECT_EQ(failures, 6);
}

TEST(Report, Table2HasTheTenPaperRows) {
  CampaignEngine engine(42);
  const auto procs = paper_process_counts();
  const Table table = table2_ec2_assemblies(engine, procs);
  EXPECT_EQ(table.rows(), 10u);
  // Last row: 1000 ranks on 63 hosts.
  const auto& last = table.row(9);
  EXPECT_EQ(last[0], "1000");
  EXPECT_EQ(last[1], "63");
}

TEST(Report, CostFigureOrdersPlatformsAtSmallScale) {
  CampaignEngine engine(42);
  const std::vector<int> procs{64};
  const Table table =
      cost_figure(engine, perf::AppKind::kReactionDiffusion, procs);
  ASSERT_EQ(table.rows(), 1u);
  const auto& row = table.row(0);
  const double puma_usd = std::stod(row[1]);
  const double ellipse_usd = std::stod(row[2]);
  const double lagrange_usd = std::stod(row[3]);
  const double ec2_usd = std::stod(row[4]);
  const double mix_usd = std::stod(row[5]);
  // At 64 ranks every platform runs; puma is the cheapest per core-hour,
  // lagrange the most expensive of the fixed-price machines.
  EXPECT_LT(puma_usd, ellipse_usd);
  EXPECT_LT(ellipse_usd, lagrange_usd);
  // The spot strategy beats on-demand EC2 by ~4.4x.
  EXPECT_NEAR(ec2_usd / mix_usd, 2.40 / 0.54, 0.2);
}

TEST(Report, AvailabilityTableShowsCloudAdvantage) {
  CampaignEngine engine(42);
  const Table table = availability_table(
      engine, perf::AppKind::kReactionDiffusion, 64, 100);
  EXPECT_EQ(table.rows(), 4u);
  const std::string text = table.to_text();
  EXPECT_NE(text.find("puma"), std::string::npos);
  EXPECT_NE(text.find("ok"), std::string::npos);
}

TEST(Report, SummaryTableCoversAllPlatformAxes) {
  CampaignEngine engine(42);
  const Table table = summary_table(engine, 125);
  EXPECT_EQ(table.rows(), 4u);
  EXPECT_EQ(table.cols(), 8u);
  // At 125 ranks everyone runs; every cell is filled.
  for (std::size_t r = 0; r < table.rows(); ++r) {
    for (const auto& cell : table.row(r)) {
      EXPECT_NE(cell, "-");
    }
  }
  // At 500 ranks puma and lagrange drop out.
  const Table big = summary_table(engine, 500);
  int dashes = 0;
  for (std::size_t r = 0; r < big.rows(); ++r) {
    dashes += big.row(r)[4] == "-";
  }
  EXPECT_EQ(dashes, 2);
}

TEST(Campaign, OnDemandCompletesWithoutInterruptions) {
  CampaignConfig config;
  config.ranks = 128;
  config.iterations = 50;
  config.use_spot = false;
  config.checkpoint_interval = 0;
  const auto r = simulate_ec2_campaign(config);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.interruptions, 0);
  EXPECT_EQ(r.iterations_redone, 0);
  EXPECT_GT(r.billed_usd, 0.0);
  EXPECT_GE(r.billed_usd, r.accrued_usd);  // whole-hour rounding
  EXPECT_GT(r.wall_clock_s, 0.0);
}

TEST(Campaign, CheckpointsBoundTheRedoneWork) {
  CampaignConfig base;
  base.ranks = 512;
  base.iterations = 300;
  base.use_spot = true;
  base.spot_bid_usd = 0.60;  // tight bid: interruptions guaranteed over hours

  CampaignConfig never = base;
  never.checkpoint_interval = 0;
  const auto r_never = simulate_ec2_campaign(never);

  CampaignConfig often = base;
  often.checkpoint_interval = 10;
  const auto r_often = simulate_ec2_campaign(often);

  EXPECT_TRUE(r_never.completed);
  EXPECT_TRUE(r_often.completed);
  if (r_often.interruptions > 0) {
    // With checkpoints every 10 iterations, each interruption redoes < 10.
    EXPECT_LE(r_often.iterations_redone, 10 * r_often.interruptions);
  }
  if (r_never.interruptions > 0) {
    EXPECT_GT(r_never.iterations_redone, 0);
  }
  EXPECT_GT(r_often.checkpoints_written, 0);
}

TEST(Campaign, DeterministicInSeed) {
  CampaignConfig config;
  config.ranks = 256;
  config.iterations = 100;
  config.checkpoint_interval = 20;
  const auto a = simulate_ec2_campaign(config);
  const auto b = simulate_ec2_campaign(config);
  EXPECT_DOUBLE_EQ(a.wall_clock_s, b.wall_clock_s);
  EXPECT_DOUBLE_EQ(a.billed_usd, b.billed_usd);
  EXPECT_EQ(a.interruptions, b.interruptions);
}

TEST(Campaign, ReclaimStormsForceInterruptionsDeterministically) {
  // Bid so high the market alone would never reclaim; only injected storms
  // can interrupt the campaign.
  CampaignConfig base;
  base.ranks = 256;
  base.iterations = 3000;  // ~12 h of wall clock: many storm-roll hours
  base.checkpoint_interval = 20;
  base.spot_bid_usd = 100.0;

  const auto calm = simulate_ec2_campaign(base);
  EXPECT_TRUE(calm.completed);
  EXPECT_EQ(calm.interruptions, 0);

  CampaignConfig stormy = base;
  stormy.faults.reclaim_storm_rate = 0.25;
  const auto a = simulate_ec2_campaign(stormy);
  const auto b = simulate_ec2_campaign(stormy);
  EXPECT_TRUE(a.completed);
  EXPECT_GT(a.interruptions, 0);
  EXPECT_GT(a.iterations_redone, 0);
  EXPECT_GT(a.wall_clock_s, calm.wall_clock_s);
  // Byte-for-byte replay: the storm schedule is a pure hash of the seed.
  EXPECT_DOUBLE_EQ(a.wall_clock_s, b.wall_clock_s);
  EXPECT_DOUBLE_EQ(a.billed_usd, b.billed_usd);
  EXPECT_DOUBLE_EQ(a.accrued_usd, b.accrued_usd);
  EXPECT_EQ(a.interruptions, b.interruptions);
  EXPECT_EQ(a.iterations_redone, b.iterations_redone);
}

TEST(Campaign, ValidatesConfig) {
  CampaignConfig bad;
  bad.iterations = 0;
  EXPECT_THROW(simulate_ec2_campaign(bad), Error);
}

TEST(Report, AllTablesRenderBothFormats) {
  CampaignEngine engine(42);
  const std::vector<int> procs{1, 64};
  std::ostringstream sink;
  for (const Table& table :
       {weak_scaling_figure(engine, perf::AppKind::kReactionDiffusion, procs),
        table2_ec2_assemblies(engine, procs),
        cost_figure(engine, perf::AppKind::kNavierStokes, procs),
        availability_table(engine, perf::AppKind::kReactionDiffusion, 64, 10),
        summary_table(engine, 64)}) {
    table.render_text(sink);
    table.render_csv(sink);
    table.render_markdown(sink);
  }
  EXPECT_GT(sink.str().size(), 1000u);
}

TEST(Runner, DeterministicAcrossRuns) {
  ExperimentRunner a(7);
  ExperimentRunner b(7);
  Experiment e;
  e.platform = "ec2";
  e.ranks = 343;
  e.ec2_spot_mix = true;
  e.ec2_placement_groups = 4;
  const auto ra = a.run(e);
  const auto rb = b.run(e);
  EXPECT_DOUBLE_EQ(ra.iteration.total_s, rb.iteration.total_s);
  EXPECT_DOUBLE_EQ(ra.cost_per_iteration_usd, rb.cost_per_iteration_usd);
  EXPECT_EQ(ra.spot_hosts, rb.spot_hosts);
  EXPECT_DOUBLE_EQ(ra.queue_wait_s, rb.queue_wait_s);
}

}  // namespace
}  // namespace hetero::core
