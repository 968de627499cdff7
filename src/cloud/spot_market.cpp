#include "cloud/spot_market.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace hetero::cloud {

namespace {
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t type_hash(const InstanceType& type) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : type.name) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

SpotMarket::SpotMarket(std::uint64_t seed) : seed_(seed) {}

std::uint64_t SpotMarket::type_seed(const InstanceType& type) const {
  return mix(seed_, type_hash(type));
}

Rng SpotMarket::stream(std::uint64_t type_seed, std::int64_t hour,
                       std::uint64_t salt) const {
  return Rng(mix(type_seed, mix(static_cast<std::uint64_t>(hour), salt)));
}

double SpotMarket::price(const InstanceType& type, std::int64_t hour) {
  HETERO_REQUIRE(type.typical_spot_hourly_usd > 0.0,
                 "instance type has no spot market: " + type.name);
  if (last_.usd >= 0.0 && last_.hour == hour && last_.type == type.name &&
      last_.on_demand_usd == type.on_demand_hourly_usd &&
      last_.typical_usd == type.typical_spot_hourly_usd) {
    return last_.usd;
  }
  // Log-AR(1): iterate a short window ending at `hour` so nearby hours are
  // correlated yet any hour is computable without global state.
  const double target = std::log(type.typical_spot_hourly_usd);
  const std::uint64_t seed = type_seed(type);
  double lp = target;
  constexpr int kWindow = 24;
  for (std::int64_t h = hour - kWindow; h <= hour; ++h) {
    Rng rng = stream(seed, h, 0xA11CE);
    lp = 0.80 * lp + 0.20 * target + 0.12 * rng.normal();
    // Demand spikes: with small probability the price jumps above the
    // on-demand rate (documented spot behaviour of the era).
    if (rng.bernoulli(0.012)) {
      lp = std::log(type.on_demand_hourly_usd * rng.uniform(1.05, 1.8));
    }
  }
  last_ = {type.name, type.on_demand_hourly_usd, type.typical_spot_hourly_usd,
           hour, std::exp(lp)};
  return last_.usd;
}

int SpotMarket::capacity(const InstanceType& type, std::int64_t hour) {
  Rng rng = stream(type_seed(type), hour, 0xCAFE);
  if (type.cluster_compute) {
    // Scarce HPC capacity: typically 15..45 spare cc instances.
    return static_cast<int>(rng.uniform_int(15, 45));
  }
  return static_cast<int>(rng.uniform_int(200, 2000));
}

int SpotMarket::fulfill(const InstanceType& type, double bid, int count,
                        std::int64_t hour) {
  HETERO_REQUIRE(count >= 0, "cannot request a negative instance count");
  if (count == 0 || bid < price(type, hour)) {
    return 0;
  }
  return std::min(count, capacity(type, hour));
}

}  // namespace hetero::cloud
