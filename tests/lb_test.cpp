// Tests for intra-platform heterogeneity: the skew plan (resil::SkewPlan),
// the modeled slowdown helpers, the load-balancing control loop
// (lb::LoadBalancer), a property-based sweep of the capacity-weighted
// partitioners, and end-to-end direct-mode runs where a rebalanced solve
// must still pass the exact-solution oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "lb/load_balancer.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/graph.hpp"
#include "partition/partitioner.hpp"
#include "perf/scaling_model.hpp"
#include "prop_util.hpp"
#include "resil/skew_plan.hpp"
#include "support/error.hpp"

namespace hetero {
namespace {

// ---------------------------------------------------------------------------
// SkewPlan

TEST(SkewPlan, DefaultSpecIsInert) {
  const resil::SkewSpec spec;
  EXPECT_FALSE(spec.enabled());
  const resil::SkewPlan plan(spec, 42, "puma");
  for (int r = 0; r < 32; ++r) {
    EXPECT_EQ(plan.static_factor(r), 1.0);
    EXPECT_EQ(plan.factor_at(r, 123.4), 1.0);
    EXPECT_EQ(plan.mean_factor(r), 1.0);
  }
  const resil::SkewPlan inert;
  EXPECT_FALSE(inert.enabled());
  EXPECT_EQ(inert.factor_at(7, 9.0), 1.0);
}

TEST(SkewPlan, IsAPureFunctionOfSeedAndPlatform) {
  resil::SkewSpec spec;
  spec.slow_core_fraction = 0.25;
  spec.slow_core_factor = 2.0;
  spec.noise_rate = 0.2;
  const resil::SkewPlan a(spec, 7, "ec2");
  const resil::SkewPlan b(spec, 7, "ec2");
  for (int r = 0; r < 64; ++r) {
    for (double t : {0.0, 10.0, 31.0, 1000.0}) {
      EXPECT_EQ(a.factor_at(r, t), b.factor_at(r, t));
    }
  }
  // A different platform re-rolls the slow-core lottery (some rank differs).
  const resil::SkewPlan c(spec, 7, "puma");
  bool any_differs = false;
  for (int r = 0; r < 64; ++r) {
    any_differs = any_differs || a.static_factor(r) != c.static_factor(r);
  }
  EXPECT_TRUE(any_differs);
}

TEST(SkewPlan, SlowCoreFractionIsRespectedInTheLarge) {
  resil::SkewSpec spec;
  spec.slow_core_fraction = 0.25;
  spec.slow_core_factor = 2.0;
  const resil::SkewPlan plan(spec, 99, "puma");
  int slow = 0;
  const int ranks = 4000;
  for (int r = 0; r < ranks; ++r) {
    const double f = plan.static_factor(r);
    EXPECT_TRUE(f == 1.0 || f == 2.0);
    slow += f == 2.0 ? 1 : 0;
  }
  const double fraction = static_cast<double>(slow) / ranks;
  EXPECT_NEAR(fraction, 0.25, 0.03);
}

TEST(SkewPlan, NoiseWindowsComposeMultiplicatively) {
  resil::SkewSpec spec;
  spec.slow_core_fraction = 0.5;
  spec.slow_core_factor = 3.0;
  spec.noise_rate = 1.0;  // every window is noisy
  spec.noise_factor = 1.5;
  spec.window_s = 10.0;
  const resil::SkewPlan plan(spec, 5, "smp");
  for (int r = 0; r < 16; ++r) {
    const double s = plan.static_factor(r);
    EXPECT_EQ(plan.factor_at(r, 42.0), s * 1.5);
    EXPECT_DOUBLE_EQ(plan.mean_factor(r), s * 1.5);
  }
  // Factors are constant within one window.
  EXPECT_EQ(plan.factor_at(3, 20.0), plan.factor_at(3, 29.999));
}

TEST(SkewPlan, RejectsInvalidSpecs) {
  resil::SkewSpec bad;
  bad.slow_core_fraction = 1.5;
  EXPECT_THROW(resil::SkewPlan(bad, 1, ""), Error);
  bad = {};
  bad.slow_core_fraction = 0.5;
  bad.slow_core_factor = 0.5;  // < 1
  EXPECT_THROW(resil::SkewPlan(bad, 1, ""), Error);
  bad = {};
  bad.noise_rate = 0.1;
  bad.window_s = 0.0;
  EXPECT_THROW(resil::SkewPlan(bad, 1, ""), Error);
}

// ---------------------------------------------------------------------------
// Modeled slowdown helpers

TEST(SkewSlowdown, UnbalancedIsMaxBalancedIsHarmonic) {
  const std::vector<double> f{2.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(perf::skew_slowdown_unbalanced(f), 2.0);
  // p / sum(1/f) = 4 / (0.5 + 3) = 8/7.
  EXPECT_NEAR(perf::skew_slowdown_balanced(f), 8.0 / 7.0, 1e-12);
  EXPECT_LT(perf::skew_slowdown_balanced(f),
            perf::skew_slowdown_unbalanced(f));
}

TEST(SkewSlowdown, UniformSkewCannotBeBalancedAway) {
  const std::vector<double> f(8, 1.7);
  EXPECT_DOUBLE_EQ(perf::skew_slowdown_unbalanced(f), 1.7);
  EXPECT_DOUBLE_EQ(perf::skew_slowdown_balanced(f), 1.7);
}

TEST(SkewSlowdown, BalancedNeverExceedsUnbalanced) {
  test::PropRng rng(2026);
  for (int c = 0; c < 200; ++c) {
    const int n = rng.uniform_int(1, 64);
    std::vector<double> f(static_cast<std::size_t>(n));
    for (double& x : f) {
      x = rng.uniform(1.0, 4.0);
    }
    const double u = perf::skew_slowdown_unbalanced(f);
    const double b = perf::skew_slowdown_balanced(f);
    EXPECT_GE(u + 1e-12, b) << "case " << c;
    EXPECT_GE(b, 1.0) << "case " << c;
  }
}

// ---------------------------------------------------------------------------
// LoadBalancer

lb::BalancePolicy on_policy() {
  lb::BalancePolicy p;
  p.enabled = true;
  return p;
}

TEST(LoadBalancer, RejectsInvalidPolicies) {
  lb::BalancePolicy p = on_policy();
  p.threshold = 1.0;
  EXPECT_THROW(lb::LoadBalancer(p, 4), Error);
  p = on_policy();
  p.mode = "magic";
  EXPECT_THROW(lb::LoadBalancer(p, 4), Error);
  p = on_policy();
  p.diffusion_eta = 0.0;
  EXPECT_THROW(lb::LoadBalancer(p, 4), Error);
  p = on_policy();
  p.min_weight = 0.0;
  EXPECT_THROW(lb::LoadBalancer(p, 4), Error);
  p = on_policy();
  p.check_every = 0;
  EXPECT_THROW(lb::LoadBalancer(p, 4), Error);
  EXPECT_THROW(lb::LoadBalancer(on_policy(), 0), Error);
}

TEST(LoadBalancer, DisabledOrSoloNeverTriggers) {
  lb::BalancePolicy off;
  off.enabled = false;
  lb::LoadBalancer disabled(off, 4);
  EXPECT_FALSE(disabled.enabled());
  lb::LoadBalancer solo(on_policy(), 1);
  EXPECT_FALSE(solo.enabled());
  const std::vector<double> skewed{9.0, 1.0, 1.0, 1.0};
  const std::vector<double> one{9.0};
  for (int s = 0; s < 6; ++s) {
    EXPECT_FALSE(disabled.observe(s, std::span<const double>(skewed)));
    EXPECT_FALSE(solo.observe(s, std::span<const double>(one)));
  }
  EXPECT_EQ(disabled.outcome().checks, 0);
}

TEST(LoadBalancer, TriggersAfterWarmupWhenImbalanceExceedsThreshold) {
  lb::LoadBalancer balancer(on_policy(), 4);  // threshold 1.25, min_steps 2
  const std::vector<double> t{2.0, 1.0, 1.0, 1.0};  // imbalance 1.6
  const std::span<const double> times(t);
  EXPECT_FALSE(balancer.observe(0, times));  // EWMA warm-up
  EXPECT_TRUE(balancer.observe(1, times));
  EXPECT_NEAR(balancer.imbalance(), 1.6, 1e-12);
  EXPECT_EQ(balancer.outcome().checks, 1);
  EXPECT_NEAR(balancer.outcome().last_imbalance, 1.6, 1e-12);
}

TEST(LoadBalancer, BalancedTimesNeverTrigger) {
  lb::LoadBalancer balancer(on_policy(), 4);
  const std::vector<double> t{1.0, 1.01, 0.99, 1.0};
  for (int s = 0; s < 10; ++s) {
    EXPECT_FALSE(balancer.observe(s, std::span<const double>(t)));
  }
  EXPECT_GT(balancer.outcome().checks, 0);
  EXPECT_EQ(balancer.outcome().rebalances, 0);
}

TEST(LoadBalancer, CheckEveryAndRebalanceCapAreRespected) {
  lb::BalancePolicy p = on_policy();
  p.check_every = 3;
  p.min_steps = 1;
  p.max_rebalances = 1;
  lb::LoadBalancer balancer(p, 2);
  const std::vector<double> t{3.0, 1.0};
  const std::span<const double> times(t);
  EXPECT_FALSE(balancer.observe(0, times));  // not a check step
  EXPECT_FALSE(balancer.observe(1, times));
  EXPECT_TRUE(balancer.observe(2, times));  // (2+1) % 3 == 0
  balancer.record_rebalance();
  EXPECT_EQ(balancer.outcome().rebalances, 1);
  // Cap reached: still counts checks but never fires again.
  EXPECT_FALSE(balancer.observe(5, times));
  EXPECT_FALSE(balancer.observe(8, times));
  EXPECT_EQ(balancer.outcome().rebalances, 1);
}

TEST(LoadBalancer, RepartitionWeightsFavorFastRanksAndStayBounded) {
  lb::BalancePolicy p = on_policy();
  p.min_steps = 1;
  lb::LoadBalancer balancer(p, 4);
  const std::vector<double> t{2.0, 1.0, 1.0, 1.0};
  ASSERT_TRUE(balancer.observe(1, std::span<const double>(t)));
  balancer.record_rebalance();
  const auto& w = balancer.rank_weights();
  ASSERT_EQ(w.size(), 4u);
  const double mean = std::accumulate(w.begin(), w.end(), 0.0) / 4.0;
  EXPECT_NEAR(mean, 1.0, 1e-12);
  // The slow rank gets the smallest share; everyone stays in the clamp.
  EXPECT_LT(w[0], w[1]);
  EXPECT_DOUBLE_EQ(w[1], w[2]);
  for (double x : w) {
    EXPECT_GE(x, p.min_weight);
    EXPECT_LE(x, p.max_weight);
  }
}

TEST(LoadBalancer, DiffusionConservesWeightAndMovesTowardFastRanks) {
  lb::BalancePolicy p = on_policy();
  p.mode = "diffuse";
  p.min_steps = 1;
  lb::LoadBalancer balancer(p, 4);
  const std::vector<double> t{2.0, 1.0, 1.0, 1.0};
  ASSERT_TRUE(balancer.observe(1, std::span<const double>(t)));
  balancer.record_rebalance();
  const auto& w = balancer.rank_weights();
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, 4.0, 1e-12);      // mean stays 1
  EXPECT_LT(w[0], 1.0);              // slow rank sheds weight...
  EXPECT_GT(w[1], 1.0);              // ...to its faster neighbour
  // One bounded sweep moves less than the full repartition jump would.
  lb::BalancePolicy jump_p = on_policy();
  jump_p.min_steps = 1;
  lb::LoadBalancer jump(jump_p, 4);
  ASSERT_TRUE(jump.observe(1, std::span<const double>(t)));
  jump.record_rebalance();
  EXPECT_LT(jump.rank_weights()[0], w[0]);
}

TEST(LoadBalancer, IdenticalCopiesReachIdenticalVerdicts) {
  // The consensus pattern run_direct relies on: copies fed the same
  // allgathered stream agree bit-for-bit at every step.
  lb::BalancePolicy p = on_policy();
  p.threshold = 1.1;
  lb::LoadBalancer a(p, 3);
  lb::LoadBalancer b = a;
  test::PropRng rng(7);
  for (int s = 0; s < 20; ++s) {
    std::vector<double> t(3);
    for (double& x : t) {
      x = rng.uniform(0.5, 2.0);
    }
    const bool va = a.observe(s, std::span<const double>(t));
    const bool vb = b.observe(s, std::span<const double>(t));
    ASSERT_EQ(va, vb) << "step " << s;
    if (va) {
      a.record_rebalance();
      b.record_rebalance();
      ASSERT_EQ(a.rank_weights(), b.rank_weights());
    }
  }
  EXPECT_EQ(a.outcome().checks, b.outcome().checks);
  EXPECT_EQ(a.outcome().rebalances, b.outcome().rebalances);
}

// ---------------------------------------------------------------------------
// Property-based: weighted partitions meet their capacity-share bound.

TEST(WeightedPartitionProperty, PartSizesMeetCapacityBound) {
  for (int c = 0; c < 40; ++c) {
    test::PropRng rng(1000 + static_cast<std::uint64_t>(c));
    const int axis = rng.uniform_int(2, 5);
    const auto mesh = mesh::build_box_mesh({axis, axis, axis});
    const auto n = mesh.tet_count();
    const int parts = rng.uniform_int(2, 8);
    std::vector<double> weights(static_cast<std::size_t>(parts));
    for (double& w : weights) {
      w = rng.uniform(0.25, 4.0);
    }
    const double wsum =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    const partition::Graph g = partition::build_dual_graph(mesh);
    const std::span<const double> w(weights);
    const auto rcb = partition::partition_rcb(mesh, parts, w);
    const auto greedy = partition::partition_greedy(g, parts, w);
    // Rounding slack: each bisection level (RCB) / part hand-off (greedy)
    // may shift one element, plus the refinement pass allows one extra.
    const double slack =
        std::ceil(std::log2(static_cast<double>(parts))) + 2.0;
    for (const auto& part : {rcb, greedy}) {
      ASSERT_EQ(part.size(), n) << "case " << c;
      std::vector<std::size_t> sizes(static_cast<std::size_t>(parts), 0);
      for (int p : part) {
        ASSERT_GE(p, 0) << "case " << c;
        ASSERT_LT(p, parts) << "case " << c;
        ++sizes[static_cast<std::size_t>(p)];
      }
      EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0u), n)
          << "case " << c;
      for (int p = 0; p < parts; ++p) {
        const double ideal = static_cast<double>(n) *
                             weights[static_cast<std::size_t>(p)] / wsum;
        EXPECT_LE(static_cast<double>(sizes[static_cast<std::size_t>(p)]),
                  1.30 * ideal + slack)
            << "case " << c << " part " << p << " ideal " << ideal;
      }
      // Deterministic: the same inputs replay the same partition.
    }
    EXPECT_EQ(rcb, partition::partition_rcb(mesh, parts, w)) << "case " << c;
    EXPECT_EQ(greedy, partition::partition_greedy(g, parts, w))
        << "case " << c;
  }
}

// ---------------------------------------------------------------------------
// End to end: direct RD runs through the ExperimentRunner.

core::Experiment direct_rd(int ranks, int steps) {
  core::Experiment e;
  e.app = perf::AppKind::kReactionDiffusion;
  e.platform = "puma";
  e.ranks = ranks;
  e.cells_per_rank_axis = 4;
  e.mode = core::Mode::kDirect;
  e.direct_steps = steps;
  return e;
}

TEST(LoadBalancedRun, CalmRunMatchesUnbalancedRunBitwise) {
  // Satellite oracle: with skew off, the balancer must never fire, and the
  // numerics (which the extra allgather cannot touch) stay bit-identical
  // to a run without the balancer.
  core::ExperimentRunner runner(42);
  core::Experiment off = direct_rd(8, 4);
  core::Experiment on = direct_rd(8, 4);
  on.balance.enabled = true;
  const auto r_off = runner.run(off);
  const auto r_on = runner.run(on);
  ASSERT_TRUE(r_off.launched);
  ASSERT_TRUE(r_on.launched);
  EXPECT_EQ(r_on.balance.rebalances, 0);
  EXPECT_GT(r_on.balance.checks, 0);
  EXPECT_LT(r_on.balance.last_imbalance, on.balance.threshold);
  EXPECT_EQ(r_on.nodal_error, r_off.nodal_error);  // bitwise
  EXPECT_EQ(r_on.iteration.solver_iterations,
            r_off.iteration.solver_iterations);
  EXPECT_TRUE(r_on.solver_converged);
}

TEST(LoadBalancedRun, SkewedRunRebalancesAndStillPassesTheOracle) {
  core::ExperimentRunner runner(42);
  core::Experiment e = direct_rd(8, 8);
  e.skew.slow_core_fraction = 0.25;
  e.skew.slow_core_factor = 2.0;
  e.balance.enabled = true;
  e.balance.threshold = 1.1;
  const auto r = runner.run(e);
  ASSERT_TRUE(r.launched);
  EXPECT_GE(r.balance.rebalances, 1);
  EXPECT_TRUE(r.solver_converged);
  // The discrete solution is the exact interpolant: a rebalanced partition
  // must reproduce it to solver tolerance like any other partition.
  EXPECT_LT(r.nodal_error, 1e-8);
  // Post-rebalance the measured imbalance must have come down from the raw
  // skewed value toward the threshold.
  EXPECT_LT(r.balance.last_imbalance, 1.3);
}

TEST(LoadBalancedRun, SkewedBalancedRunsReplayByteIdentically) {
  auto run_once = [] {
    core::ExperimentRunner runner(7);
    core::Experiment e = direct_rd(8, 6);
    e.skew.slow_core_fraction = 0.25;
    e.skew.slow_core_factor = 2.0;
    e.balance.enabled = true;
    e.balance.threshold = 1.1;
    return runner.run(e);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.nodal_error, b.nodal_error);
  EXPECT_EQ(a.iteration.total_s, b.iteration.total_s);
  EXPECT_EQ(a.balance.rebalances, b.balance.rebalances);
  EXPECT_EQ(a.balance.checks, b.balance.checks);
  EXPECT_EQ(a.balance.last_imbalance, b.balance.last_imbalance);
}

TEST(LoadBalancedRun, DiffuseModeAlsoConvergesAndPassesTheOracle) {
  core::ExperimentRunner runner(42);
  core::Experiment e = direct_rd(8, 8);
  e.skew.slow_core_fraction = 0.25;
  e.skew.slow_core_factor = 2.0;
  e.balance.enabled = true;
  e.balance.threshold = 1.1;
  e.balance.mode = "diffuse";
  const auto r = runner.run(e);
  ASSERT_TRUE(r.launched);
  EXPECT_GE(r.balance.rebalances, 1);
  EXPECT_TRUE(r.solver_converged);
  EXPECT_LT(r.nodal_error, 1e-8);
}

TEST(LoadBalancedRun, ApiRejectsConflictingConfigurations) {
  core::ExperimentRunner runner(42);
  core::Experiment e = direct_rd(8, 3);
  e.balance.enabled = true;
  e.mode = core::Mode::kModeled;
  EXPECT_THROW(runner.run(e), Error);
  e = direct_rd(8, 3);
  e.balance.enabled = true;
  e.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  e.recovery.shrink_ranks_on_crash = true;
  EXPECT_THROW(runner.run(e), Error);
  e = direct_rd(8, 3);
  e.balance.enabled = true;
  e.rebroker.enabled = true;
  EXPECT_THROW(runner.run(e), Error);
  e = direct_rd(8, 3);
  e.balance.enabled = true;
  e.balance.threshold = 0.9;
  EXPECT_THROW(runner.run(e), Error);
}

// Rebalances and migrations end an attempt cleanly; only faults spend the
// crash-retry budget, and retry n waits backoff_delay_s(policy, n). Each
// case is `heterolab run --app rd --ranks 8 --mode direct --cells 3
// --steps 8 --recovery ckpt --ckpt-every 2` plus the flags below, with
// the runner seed as --seed; every one mixes clean stops with faults.
TEST(LoadBalancedRun, RebalancesDoNotSpendTheRetryBudget) {
  core::Experiment base = direct_rd(8, 8);
  base.cells_per_rank_axis = 3;
  base.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  base.recovery.checkpoint_every = 2;
  core::Experiment balanced = base;
  balanced.skew.slow_core_factor = 2.0;
  balanced.skew.slow_core_fraction = 0.25;
  balanced.balance.enabled = true;
  balanced.balance.threshold = 1.1;
  balanced.faults.rank_crash_rate = 0.03;
  core::Experiment migrating = base;
  migrating.platform = "ec2";
  migrating.rebroker.enabled = true;
  migrating.faults.rank_crash_rate = 0.04;
  const struct {
    const char* flags;
    std::uint64_t seed;
    const core::Experiment& e;
  } cases[] = {
      {"--platform puma --skew 2 --balance --balance-threshold 1.1 "
       "--faults 0.03", 1, balanced},
      {"--platform puma --skew 2 --balance --balance-threshold 1.1 "
       "--faults 0.03", 3, balanced},
      {"--platform ec2 --rebroker puma --faults 0.04", 1, migrating},
  };
  for (const auto& c : cases) {
    const auto r = core::ExperimentRunner(c.seed).run(c.e);
    const int faults = r.resil.faults_injected;
    ASSERT_GT(faults, 0) << c.flags << " --seed " << c.seed;
    EXPECT_GT(r.resil.attempts, faults + 1) << "no clean stop: " << c.flags;
    EXPECT_LT(faults, c.e.recovery.max_attempts);
    EXPECT_TRUE(r.launched) << c.flags << " --seed " << c.seed << ": "
                            << r.failure_reason;
    double expected_delay = 0.0;
    for (int i = 0; i < faults; ++i) {
      expected_delay += resil::backoff_delay_s(c.e.recovery, i);
    }
    EXPECT_EQ(r.resil.retry_delay_s, expected_delay)
        << c.flags << " --seed " << c.seed;
  }
}

TEST(ModeledRun, SkewDegradesModeledTimeByTheUnbalancedSlowdown) {
  core::ExperimentRunner runner(42);
  core::Experiment base;
  base.platform = "puma";
  base.ranks = 27;
  base.mode = core::Mode::kModeled;
  core::Experiment skewed = base;
  skewed.skew.slow_core_fraction = 0.25;
  skewed.skew.slow_core_factor = 2.0;
  const auto r0 = runner.run(base);
  const auto r1 = runner.run(skewed);
  ASSERT_TRUE(r0.launched);
  ASSERT_TRUE(r1.launched);
  // Compute inflates; the communication share does not, so the total grows
  // by less than 2x but visibly.
  EXPECT_GT(r1.iteration.total_s, 1.2 * r0.iteration.total_s);
  EXPECT_LT(r1.iteration.total_s, 2.0 * r0.iteration.total_s + 1e-12);
}

}  // namespace
}  // namespace hetero
