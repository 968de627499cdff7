#pragma once

/// \file spot_market.hpp
/// Stochastic spot-price and spot-capacity model. The paper's key empirical
/// facts: spot cc2.8xlarge cost ~54 cents/hour against $2.40 on demand, the
/// price is unpredictable ("impossible to estimate when instances start,
/// how long they are available, and their actual price"), and a full
/// 63-host spot assembly was never achieved. This model reproduces exactly
/// those behaviours deterministically from a seed.

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/instance_types.hpp"
#include "support/rng.hpp"

namespace hetero::cloud {

class SpotMarket {
 public:
  explicit SpotMarket(std::uint64_t seed);

  /// Spot price (USD/hour) of `type` during hour `hour` since epoch.
  /// Mean-reverting log-AR(1) around the type's typical spot price, with
  /// occasional demand spikes that can exceed the on-demand price. The
  /// last answer is kept: a fleet asks for one hour's price once per spot
  /// instance, and a spot request asks twice (fulfill, then launch).
  double price(const InstanceType& type, std::int64_t hour);

  /// Spare capacity (instances) the market can start during `hour`.
  /// Cluster Compute capacity is scarce; the paper never assembled 63.
  int capacity(const InstanceType& type, std::int64_t hour);

  /// How many of `count` requested instances start in `hour` given `bid`:
  /// zero when the bid is below the price, else capacity-limited.
  int fulfill(const InstanceType& type, double bid, int count,
              std::int64_t hour);

 private:
  /// The market seed mixed with the type's name.
  std::uint64_t type_seed(const InstanceType& type) const;
  /// Deterministic per-(type, hour) stream, from the type's type_seed().
  Rng stream(std::uint64_t type_seed, std::int64_t hour,
             std::uint64_t salt) const;

  /// The last price() answer, keyed by every input it depends on.
  struct Quote {
    std::string type;
    double on_demand_usd = 0.0;
    double typical_usd = 0.0;
    std::int64_t hour = 0;
    double usd = -1.0;  // < 0: nothing priced yet
  };

  std::uint64_t seed_;
  Quote last_;
};

}  // namespace hetero::cloud
