#include "lb/load_balancer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"
#include "support/error.hpp"

namespace hetero::lb {

LoadBalancer::LoadBalancer(const BalancePolicy& policy, int ranks)
    : policy_(policy), ranks_(policy.enabled ? ranks : 1) {
  HETERO_REQUIRE(ranks >= 1, "load balancer needs ranks >= 1");
  HETERO_REQUIRE(policy.threshold > 1.0,
                 "balance threshold must be > 1 (1.0 would re-trigger on "
                 "the rounding noise of a perfect partition)");
  HETERO_REQUIRE(policy.check_every >= 1,
                 "balance check_every must be >= 1");
  HETERO_REQUIRE(policy.min_steps >= 1, "balance min_steps must be >= 1");
  HETERO_REQUIRE(policy.max_rebalances >= 0,
                 "balance max_rebalances must be >= 0");
  HETERO_REQUIRE(policy.valid_mode(),
                 "balance mode must be 'repartition' or 'diffuse'");
  HETERO_REQUIRE(
      policy.min_weight > 0.0 && policy.max_weight >= policy.min_weight,
      "balance weight clamp needs 0 < min_weight <= max_weight");
  HETERO_REQUIRE(policy.diffusion_eta > 0.0 && policy.diffusion_eta <= 1.0,
                 "balance diffusion_eta must be in (0, 1]");
  // EWMAs primed with no model: the first observation seeds them.
  ewma_.assign(static_cast<std::size_t>(ranks_),
               obs::DriftEstimator(0.0, 0.5));
  weights_.assign(static_cast<std::size_t>(ranks_), 1.0);
}

bool LoadBalancer::observe(int step, std::span<const double> rank_step_s) {
  if (!enabled()) {
    return false;
  }
  HETERO_REQUIRE(rank_step_s.size() == static_cast<std::size_t>(ranks_),
                 "load balancer: need one step time per rank");
  for (int r = 0; r < ranks_; ++r) {
    ewma_[static_cast<std::size_t>(r)].observe(
        rank_step_s[static_cast<std::size_t>(r)]);
  }
  if ((step + 1) % policy_.check_every != 0) {
    return false;
  }
  if (ewma_.front().samples() < policy_.min_steps) {
    return false;
  }
  const double imb = imbalance();
  ++outcome_.checks;
  outcome_.last_imbalance = imb;
  if (outcome_.rebalances >= policy_.max_rebalances) {
    return false;
  }
  return imb > policy_.threshold;
}

midrun::Verdict LoadBalancer::observe_step(const midrun::Step& step) {
  if (!observe(step.index, step.rank_seconds) || step.last) {
    return {};
  }
  rebalance_due_ = true;
  return {midrun::Action::kStop, "rebalance_checkpoint", "lb"};
}

std::optional<midrun::Move> LoadBalancer::on_stop(double elapsed_s,
                                                  int checkpoint_step) {
  if (!std::exchange(rebalance_due_, false)) return std::nullopt;
  // The next attempt resumes from the rebalance checkpoint on a partition
  // weighted by the measured speeds (gid-keyed restore, as for recovery).
  record_rebalance();
  obs::trace_instant("rebalance", "lb", elapsed_s, "step",
                     static_cast<double>(checkpoint_step));
  return midrun::Move{weights_, "", 0};
}

double LoadBalancer::imbalance() const {
  if (ranks_ == 0 || ewma_.front().samples() == 0) {
    return 1.0;
  }
  double sum = 0.0;
  double worst = 0.0;
  for (const auto& e : ewma_) {
    sum += e.smoothed_s();
    worst = std::max(worst, e.smoothed_s());
  }
  const double mean = sum / static_cast<double>(ranks_);
  return mean > 0.0 ? worst / mean : 1.0;
}

std::vector<double> LoadBalancer::measured_speeds() const {
  // elements_r ~ weights_r and time_r ~ share_r / speed_r, so the live
  // speed estimate is weights_r / smoothed_r (normalized to mean 1).
  std::vector<double> speed(static_cast<std::size_t>(ranks_), 1.0);
  double sum = 0.0;
  for (int r = 0; r < ranks_; ++r) {
    const double t = ewma_[static_cast<std::size_t>(r)].smoothed_s();
    if (t <= 0.0) {
      return std::vector<double>(static_cast<std::size_t>(ranks_), 1.0);
    }
    speed[static_cast<std::size_t>(r)] =
        weights_[static_cast<std::size_t>(r)] / t;
    sum += speed[static_cast<std::size_t>(r)];
  }
  for (double& s : speed) {
    s *= static_cast<double>(ranks_) / sum;
  }
  return speed;
}

void LoadBalancer::record_rebalance() {
  if (policy_.mode == "repartition") {
    // One jump to speed-proportional capacity shares.
    weights_ = measured_speeds();
  } else {
    // One conservative Jacobi diffusion sweep on the rank line: each
    // neighbour pair moves an eta-bounded slice of weight from the slower
    // rank to the faster one. All deltas are computed from the old state,
    // then applied, so the sweep is order-independent.
    std::vector<double> delta(static_cast<std::size_t>(ranks_), 0.0);
    for (int r = 0; r + 1 < ranks_; ++r) {
      const double ta = ewma_[static_cast<std::size_t>(r)].smoothed_s();
      const double tb = ewma_[static_cast<std::size_t>(r + 1)].smoothed_s();
      if (ta <= 0.0 || tb <= 0.0) {
        continue;
      }
      const double gap = (ta - tb) / (ta + tb);  // >0: r is slower
      const double move =
          policy_.diffusion_eta * gap *
          std::min(weights_[static_cast<std::size_t>(r)],
                   weights_[static_cast<std::size_t>(r + 1)]);
      delta[static_cast<std::size_t>(r)] -= move;
      delta[static_cast<std::size_t>(r + 1)] += move;
    }
    for (int r = 0; r < ranks_; ++r) {
      weights_[static_cast<std::size_t>(r)] +=
          delta[static_cast<std::size_t>(r)];
    }
  }
  // Clamp and renormalize to mean 1 so the weighted partitioners always
  // see bounded, strictly positive capacity shares.
  double sum = 0.0;
  for (double& w : weights_) {
    w = std::clamp(w, policy_.min_weight, policy_.max_weight);
    sum += w;
  }
  for (double& w : weights_) {
    w *= static_cast<double>(ranks_) / sum;
  }
  // Post-rebalance measurements start fresh: the old EWMAs describe a
  // partition that no longer exists.
  ewma_.assign(static_cast<std::size_t>(ranks_),
               obs::DriftEstimator(0.0, 0.5));
  ++outcome_.rebalances;
}

}  // namespace hetero::lb
