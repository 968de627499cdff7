// Unit tests for hetero::resil — the seed-deterministic fault plan, the
// recovery policy plumbing, and the netsim degradation schedule it hands
// out. The load-bearing property everywhere is statelessness: every query
// is a pure hash of (seed, coordinates), so replays and parallel evaluation
// cannot disagree.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "netsim/degradation.hpp"
#include "resil/fault_plan.hpp"
#include "resil/recovery.hpp"
#include "support/error.hpp"

namespace hetero::resil {
namespace {

FaultSpec crash_spec(double rate) {
  FaultSpec spec;
  spec.rank_crash_rate = rate;
  return spec;
}

TEST(FaultSpecTest, DefaultInjectsNothing) {
  EXPECT_FALSE(FaultSpec{}.enabled());
  EXPECT_FALSE(FaultPlan().enabled());
  EXPECT_FALSE(FaultPlan().rank_crash(8, 10, 0).has_value());
  EXPECT_FALSE(FaultPlan().launch_fails(0));
  EXPECT_FALSE(FaultPlan().reclaim_storm(0));
}

TEST(FaultSpecTest, RatesAreValidated) {
  EXPECT_THROW(FaultPlan(crash_spec(-0.1), 1), Error);
  EXPECT_THROW(FaultPlan(crash_spec(1.1), 1), Error);
  FaultSpec bad_factor;
  bad_factor.net_degrade_rate = 0.5;
  bad_factor.net_degrade_factor = 0.5;
  EXPECT_THROW(FaultPlan(bad_factor, 1), Error);
  FaultSpec bad_window;
  bad_window.net_degrade_rate = 0.5;
  bad_window.net_degrade_window_s = 0.0;
  EXPECT_THROW(FaultPlan(bad_window, 1), Error);
}

TEST(FaultPlanTest, CrashIsDeterministicAndOrderIndependent) {
  const FaultPlan plan(crash_spec(0.05), 42);
  const auto first = plan.rank_crash(8, 10, 0);
  // Re-querying (in any interleaving with other cells) gives the same cell.
  for (int attempt = 3; attempt >= 0; --attempt) {
    (void)plan.rank_crash(8, 10, attempt);
  }
  const auto again = plan.rank_crash(8, 10, 0);
  ASSERT_EQ(first.has_value(), again.has_value());
  if (first) {
    EXPECT_EQ(first->rank, again->rank);
    EXPECT_EQ(first->step, again->step);
  }
  // A fresh plan with the same (spec, seed) agrees too.
  const FaultPlan replay(crash_spec(0.05), 42);
  const auto replayed = replay.rank_crash(8, 10, 0);
  ASSERT_EQ(first.has_value(), replayed.has_value());
}

TEST(FaultPlanTest, CertainCrashHitsTheFirstExposedCell) {
  const FaultPlan plan(crash_spec(1.0), 7);
  const auto crash = plan.rank_crash(8, 10, 0);
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->step, 0);
  EXPECT_EQ(crash->rank, 0);
  // Resuming from step 6 exposes only later cells.
  const auto resumed = plan.rank_crash(8, 10, 0, 6);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->step, 6);
}

TEST(FaultPlanTest, FirstStepSkipsEarlierCells) {
  // Whatever cell fires, restarting past it must not report it again.
  const FaultPlan plan(crash_spec(0.2), 11);
  const auto crash = plan.rank_crash(8, 10, 0);
  ASSERT_TRUE(crash.has_value());
  const auto later = plan.rank_crash(8, 10, 0, crash->step + 1);
  if (later) {
    EXPECT_GT(later->step, crash->step);
  }
}

TEST(FaultPlanTest, AttemptsAreIndependentCells) {
  // With a moderate rate some attempts crash and (almost surely) not all
  // in the same cell: the attempt index really enters the hash.
  const FaultPlan plan(crash_spec(0.1), 3);
  std::set<std::pair<int, int>> cells;
  int crashes = 0;
  for (int attempt = 0; attempt < 20; ++attempt) {
    if (const auto c = plan.rank_crash(8, 10, attempt)) {
      ++crashes;
      cells.insert({c->step, c->rank});
    }
  }
  EXPECT_GT(crashes, 0);
  EXPECT_GT(cells.size(), 1u);
}

TEST(FaultPlanTest, SeedSelectsADifferentSchedule) {
  int differing = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const FaultPlan a(crash_spec(0.1), seed);
    const FaultPlan b(crash_spec(0.1), seed + 100);
    const auto ca = a.rank_crash(8, 20, 0);
    const auto cb = b.rank_crash(8, 20, 0);
    if (ca.has_value() != cb.has_value() ||
        (ca && (ca->step != cb->step || ca->rank != cb->rank))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlanTest, LaunchAndStormQueriesAreDeterministic) {
  FaultSpec spec;
  spec.launch_failure_rate = 0.5;
  spec.reclaim_storm_rate = 0.5;
  const FaultPlan plan(spec, 9);
  int launch_faults = 0;
  int storms = 0;
  for (int i = 0; i < 64; ++i) {
    const bool launch = plan.launch_fails(i);
    const bool storm = plan.reclaim_storm(i);
    EXPECT_EQ(launch, plan.launch_fails(i));
    EXPECT_EQ(storm, plan.reclaim_storm(i));
    launch_faults += launch ? 1 : 0;
    storms += storm ? 1 : 0;
  }
  // Rate 0.5 over 64 trials: both some hits and some misses.
  EXPECT_GT(launch_faults, 0);
  EXPECT_LT(launch_faults, 64);
  EXPECT_GT(storms, 0);
  EXPECT_LT(storms, 64);
}

TEST(FaultPlanTest, DegradationScheduleCarriesTheSpec) {
  FaultSpec spec;
  spec.net_degrade_rate = 0.25;
  spec.net_degrade_factor = 5.0;
  spec.net_degrade_window_s = 10.0;
  const FaultPlan plan(spec, 13);
  const auto schedule = plan.degradation();
  EXPECT_TRUE(schedule.enabled());
  EXPECT_DOUBLE_EQ(schedule.active_fraction, 0.25);
  EXPECT_DOUBLE_EQ(schedule.factor, 5.0);
  EXPECT_DOUBLE_EQ(schedule.window_s, 10.0);
}

TEST(DegradationScheduleTest, DisabledIsExactlyOne) {
  const netsim::DegradationSchedule off;
  EXPECT_FALSE(off.enabled());
  for (double t : {0.0, 1.0, 59.9, 60.0, 1e6}) {
    EXPECT_EQ(off.factor_at(t), 1.0);
  }
}

TEST(DegradationScheduleTest, WindowsAreDeterministicAndBinary) {
  netsim::DegradationSchedule schedule;
  schedule.active_fraction = 0.5;
  schedule.factor = 3.0;
  schedule.seed = 21;
  int degraded = 0;
  for (int w = 0; w < 64; ++w) {
    const double t = w * schedule.window_s + 1.0;
    const double f = schedule.factor_at(t);
    EXPECT_TRUE(f == 1.0 || f == 3.0);
    // Any instant inside the same window agrees.
    EXPECT_EQ(f, schedule.factor_at(t + schedule.window_s * 0.9));
    degraded += f == 3.0 ? 1 : 0;
  }
  EXPECT_GT(degraded, 0);
  EXPECT_LT(degraded, 64);
  EXPECT_EQ(schedule.factor_at(-1.0), 1.0);
}

TEST(RecoveryTest, BackoffGrowsAndCaps) {
  RecoveryPolicy policy;
  policy.backoff_base_s = 30.0;
  policy.backoff_factor = 2.0;
  policy.backoff_cap_s = 100.0;
  EXPECT_DOUBLE_EQ(backoff_delay_s(policy, 0), 30.0);
  EXPECT_DOUBLE_EQ(backoff_delay_s(policy, 1), 60.0);
  EXPECT_DOUBLE_EQ(backoff_delay_s(policy, 2), 100.0);  // capped, not 120
  EXPECT_DOUBLE_EQ(backoff_delay_s(policy, 10), 100.0);
}

TEST(RecoveryTest, KindNamesRoundTrip) {
  for (const auto kind :
       {RecoveryKind::kNone, RecoveryKind::kRestartScratch,
        RecoveryKind::kCheckpointRestart}) {
    EXPECT_EQ(recovery_kind_by_name(to_string(kind)), kind);
  }
  try {
    recovery_kind_by_name("bogus");
    FAIL() << "expected an Error for an unknown recovery kind";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("none|scratch|ckpt"),
              std::string::npos);
  }
}

// The recovery controller's hooks: checkpoints every K steps but never
// after the last, retries counted by faults (not by the attempt index,
// which clean stops also advance), backoff per retry, shrink per crash.
TEST(RecoveryTest, ControllerCountsItsOwnRetriesAndShrinks) {
  RecoveryPolicy policy;
  policy.kind = RecoveryKind::kCheckpointRestart;
  policy.checkpoint_every = 2;
  policy.max_attempts = 3;
  policy.shrink_ranks_on_crash = true;
  Recovery recovery(policy);
  EXPECT_EQ(recovery.observe_step({0, 1.0, 0.0, {}, false}).action,
            midrun::Action::kContinue);
  EXPECT_EQ(recovery.observe_step({1, 1.0, 0.0, {}, false}).action,
            midrun::Action::kCheckpoint);
  EXPECT_EQ(recovery.observe_step({3, 1.0, 0.0, {}, true}).action,
            midrun::Action::kContinue);
  EXPECT_FALSE(recovery.on_stop(1.0, 2).has_value());

  recovery.begin_attempt(4, "puma", 27);  // four clean stops came first
  midrun::Fault first{5, false, 10.0, 0.5, 4, 27};
  recovery.on_fault(first);
  EXPECT_TRUE(first.retry);
  EXPECT_EQ(first.retry_delay_s, backoff_delay_s(policy, 0));
  EXPECT_EQ(first.ranks, 8);
  recovery.begin_attempt(5, "puma", 8);
  midrun::Fault second{6, true, 5.0, 0.25, 6, 8};
  recovery.on_fault(second);
  EXPECT_TRUE(second.retry);
  EXPECT_EQ(second.retry_delay_s, backoff_delay_s(policy, 1));
  EXPECT_EQ(second.ranks, 1);
  recovery.begin_attempt(6, "puma", 1);
  midrun::Fault third{7, false, 2.0, 0.125, 6, 1};
  recovery.on_fault(third);
  EXPECT_FALSE(third.retry);  // the third fault reaches max_attempts

  const RecoveryStats& stats = recovery.outcome();
  EXPECT_EQ(stats.attempts, 7);
  EXPECT_EQ(stats.faults_injected, 3);
  EXPECT_EQ(stats.steps_wasted, 1 + 0 + 1);
  EXPECT_EQ(stats.steps_recovered, 4 + 6);
  EXPECT_EQ(stats.retry_delay_s,
            backoff_delay_s(policy, 0) + backoff_delay_s(policy, 1));
  EXPECT_EQ(stats.wasted_sim_s, 17.0);
  EXPECT_EQ(stats.wasted_cost_usd, 0.875);
  EXPECT_FALSE(stats.recovered);

  policy.checkpoint_every = 0;
  EXPECT_THROW(Recovery{policy}, Error);
  policy.kind = RecoveryKind::kNone;  // the interval is unused there
  Recovery none(policy);
  midrun::Fault only{0, false, 1.0, 0.0, 0, 8};
  none.on_fault(only);
  EXPECT_FALSE(only.retry);
}

TEST(RecoveryTest, InjectedFaultNamesRankAndStep) {
  const InjectedFault fault(3, 7, 1.5);
  EXPECT_EQ(fault.rank(), 3);
  EXPECT_EQ(fault.step(), 7);
  EXPECT_EQ(fault.now_s(), 1.5);
  const std::string what = fault.what();
  EXPECT_NE(what.find("rank 3"), std::string::npos);
  EXPECT_NE(what.find("step 7"), std::string::npos);
}

}  // namespace
}  // namespace hetero::resil
