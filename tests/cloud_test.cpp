// Tests for the EC2 simulator: catalog, spot market, service semantics,
// placement groups, and billing.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <vector>

#include "cloud/ec2_service.hpp"
#include "cloud/instance_types.hpp"
#include "cloud/spot_market.hpp"
#include "cloud/staging.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"

namespace hetero::cloud {
namespace {

TEST(InstanceCatalog, ContainsThePaperTypes) {
  const auto& cc2 = instance_type("cc2.8xlarge");
  EXPECT_EQ(cc2.cores, 16);
  EXPECT_NEAR(cc2.ram_gb, 60.5, 1e-12);
  EXPECT_DOUBLE_EQ(cc2.on_demand_hourly_usd, 2.40);
  EXPECT_DOUBLE_EQ(cc2.typical_spot_hourly_usd, 0.54);
  EXPECT_TRUE(cc2.cluster_compute);
  EXPECT_EQ(cc2.network, "10GbE");

  const auto& micro = instance_type("t1.micro");
  EXPECT_EQ(micro.cores, 1);
  EXPECT_FALSE(micro.cluster_compute);

  const auto& cg1 = instance_type("cg1.4xlarge");
  EXPECT_EQ(cg1.gpus, 2);

  EXPECT_THROW(instance_type("p5.48xlarge"), Error);
  EXPECT_GE(instance_catalog().size(), 7u);
}

TEST(SpotMarket, PricesAreDeterministicPerSeed) {
  SpotMarket a(7);
  SpotMarket b(7);
  SpotMarket c(8);
  const auto& cc2 = instance_type("cc2.8xlarge");
  int diverged = 0;
  for (std::int64_t h = 0; h < 20; ++h) {
    EXPECT_DOUBLE_EQ(a.price(cc2, h), b.price(cc2, h));
    diverged += a.price(cc2, h) != c.price(cc2, h);
  }
  EXPECT_GT(diverged, 15);
}

TEST(SpotMarket, PricesHoverAroundTypicalWithSpikes) {
  SpotMarket market(42);
  const auto& cc2 = instance_type("cc2.8xlarge");
  int below_on_demand = 0;
  int above_on_demand = 0;
  std::vector<double> prices;
  const int hours = 500;
  for (std::int64_t h = 0; h < hours; ++h) {
    const double p = market.price(cc2, h);
    EXPECT_GT(p, 0.0);
    below_on_demand += p < cc2.on_demand_hourly_usd;
    above_on_demand += p >= cc2.on_demand_hourly_usd;
    prices.push_back(p);
  }
  // Mostly cheap, sometimes spiking above on-demand (both happen).
  EXPECT_GT(below_on_demand, hours * 3 / 4);
  EXPECT_GT(above_on_demand, 0);
  // The median tracks the long-run typical price (robust to spikes).
  EXPECT_NEAR(percentile(prices, 0.5), cc2.typical_spot_hourly_usd, 0.30);
}

TEST(SpotMarket, ClusterComputeCapacityIsScarce) {
  SpotMarket market(42);
  const auto& cc2 = instance_type("cc2.8xlarge");
  for (std::int64_t h = 0; h < 100; ++h) {
    const int cap = market.capacity(cc2, h);
    EXPECT_GE(cap, 15);
    EXPECT_LE(cap, 45);
    // The paper never assembled 63 spot hosts; the model guarantees it.
    EXPECT_LT(cap, 63);
  }
}

TEST(SpotMarket, FulfillRespectsBidAndCapacity) {
  SpotMarket market(42);
  const auto& cc2 = instance_type("cc2.8xlarge");
  EXPECT_EQ(market.fulfill(cc2, /*bid=*/0.01, 10, 0), 0);  // bid too low
  const int granted = market.fulfill(cc2, /*bid=*/50.0, 63, 0);
  EXPECT_GT(granted, 0);
  EXPECT_LE(granted, 45);
  EXPECT_LE(market.fulfill(cc2, 50.0, 5, 0), 5);
  EXPECT_THROW(market.fulfill(cc2, 1.0, -1, 0), Error);
}

TEST(SpotMarket, RepeatedPricesEqualAFreshMarketsBitwise) {
  // price() keeps its last answer; whatever was asked before, every answer
  // must be the one a market that never priced anything gives.
  SpotMarket market(11);
  const auto& cc2 = instance_type("cc2.8xlarge");
  const auto& cg1 = instance_type("cg1.4xlarge");
  InstanceType cheaper = cc2;  // same name, other rates
  cheaper.typical_spot_hourly_usd = 0.27;
  const InstanceType* types[] = {&cc2, &cc2, &cg1, &cc2, &cheaper};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::int64_t h : {3, 3, 4, 3, 900, 4, 4, 0}) {
    for (const InstanceType* type : types) {
      EXPECT_EQ(bits(market.price(*type, h)),
                bits(SpotMarket(11).price(*type, h)))
          << type->name << " " << type->typical_spot_hourly_usd << " h=" << h;
    }
    market.fulfill(cg1, 1.0, 3, h + 1);
  }
  EXPECT_NE(market.price(cc2, 3), market.price(cheaper, 3));
}

TEST(Ec2Service, OnDemandAlwaysDeliversTheCount) {
  Ec2Service service(1);
  const int group = service.create_placement_group("hpc");
  const auto launch = service.request_on_demand("cc2.8xlarge", 63, group);
  EXPECT_EQ(launch.instances.size(), 63u);
  EXPECT_GT(launch.ready_after_s, 0.0);
  for (const auto& inst : launch.instances) {
    EXPECT_DOUBLE_EQ(inst.hourly_usd, 2.40);
    EXPECT_FALSE(inst.spot);
    EXPECT_EQ(inst.placement_group, group);
    EXPECT_FALSE(inst.private_ip.empty());
  }
  EXPECT_EQ(service.fleet().size(), 63u);
}

TEST(Ec2Service, SpotRequestsAreOnlyPartiallyFulfilled) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    Ec2Service service(seed);
    std::vector<int> groups;
    for (int g = 0; g < 4; ++g) {
      std::string name = "group-";
      name += std::to_string(g);
      groups.push_back(service.create_placement_group(name));
    }
    const auto launch = service.request_spot("cc2.8xlarge", 63, 1.2, groups);
    EXPECT_LT(launch.instances.size(), 63u) << "seed " << seed;
    for (const auto& inst : launch.instances) {
      EXPECT_TRUE(inst.spot);
      EXPECT_LT(inst.hourly_usd, 2.40);
    }
  }
}

TEST(Ec2Service, SpotSpreadAcrossGroupsRoundRobin) {
  Ec2Service service(3);
  std::vector<int> groups{service.create_placement_group("a"),
                          service.create_placement_group("b")};
  const auto launch = service.request_spot("cc2.8xlarge", 40, 2.0, groups);
  if (launch.instances.size() >= 2) {
    EXPECT_EQ(launch.instances[0].placement_group, groups[0]);
    EXPECT_EQ(launch.instances[1].placement_group, groups[1]);
  }
}

TEST(Ec2Service, PlacementGroupValidation) {
  Ec2Service service(1);
  EXPECT_THROW(service.request_on_demand("cc2.8xlarge", 1, 7), Error);
  // Placement groups are a Cluster Compute feature.
  const int g = service.create_placement_group("x");
  EXPECT_THROW(service.request_on_demand("m1.small", 1, g), Error);
  EXPECT_NO_THROW(service.request_on_demand("m1.small", 1));
}

TEST(Ec2Service, WholeHourBilling) {
  Ec2Service service(1);
  auto launch = service.request_on_demand("cc2.8xlarge", 2);
  service.advance(1800.0);  // 30 minutes
  EXPECT_NEAR(service.accrued_usd(), 2 * 2.40 * 0.5, 1e-9);
  // Amazon bills the full hour.
  EXPECT_NEAR(service.billed_usd(), 2 * 2.40, 1e-9);
  service.terminate(launch.instances);
  service.advance(7200.0);  // billing stopped at termination
  EXPECT_NEAR(service.billed_usd(), 2 * 2.40, 1e-9);
  EXPECT_TRUE(service.fleet().empty());
  EXPECT_THROW(service.terminate(launch.instances), Error);
}

TEST(Ec2Service, TerminateTakesAnyOrderButNoStrangerOrDuplicate) {
  Ec2Service service(1);
  const auto a = service.request_on_demand("cc2.8xlarge", 3).instances;
  const auto b = service.request_on_demand("m1.small", 2).instances;
  // A duplicate or an instance that is not running terminates nothing.
  EXPECT_THROW(service.terminate({b[0], a[1], b[0]}), Error);
  EXPECT_EQ(service.fleet().size(), 5u);
  service.terminate({b[1], a[0], a[2]});
  ASSERT_EQ(service.fleet().size(), 2u);
  EXPECT_EQ(service.fleet()[0].id, a[1].id);
  EXPECT_EQ(service.fleet()[1].id, b[0].id);
  EXPECT_THROW(service.terminate({a[1], a[0]}), Error);
  EXPECT_EQ(service.fleet().size(), 2u);
  service.advance(5400.0);
  // Three 1-hour charges stopped at t = 0, two 2-hour charges still open.
  EXPECT_NEAR(service.billed_usd(), 2 * 2.40 + 0.08 + 2 * (2.40 + 0.08),
              1e-9);
}

TEST(Ec2Service, BilledGaugeEqualsTheBillAfterEveryAdvance) {
  // A spot fleet bid near the market loses hosts to reclaims and is
  // refilled at other offsets into the hour, so its charges start their
  // billed hours at different times; an on-demand pair is terminated
  // mid-hour. advance() re-sums the bill only when it can have changed,
  // yet the gauge must read billed_usd() exactly after every call.
  Ec2Service service(5);
  const int g = service.create_placement_group("x");
  const obs::Gauge& gauge = obs::metrics().gauge("cloud.billed_usd");
  service.request_spot("cc2.8xlarge", 2, 0.80, {g});
  const double bids[] = {0.47, 0.52, 0.58};
  const auto on_demand = service.request_on_demand("cc2.8xlarge", 2);
  const double steps[] = {1.0, 599.5, 2999.5, 0.0, 1e-9, 1800.0, 2400.0,
                          7.25};
  int reclaims = 0;
  int refills = 0;
  for (int i = 0; i < 400; ++i) {
    reclaims += !service.advance(steps[i % std::size(steps)]).empty();
    ASSERT_EQ(gauge.value(), service.billed_usd()) << "advance " << i;
    if (i == 150) {
      service.terminate(on_demand.instances);
    }
    const int spot = static_cast<int>(std::count_if(
        service.fleet().begin(), service.fleet().end(),
        [](const Instance& inst) { return inst.spot; }));
    if (spot < 6 && i % 3 == 0) {
      refills += !service
                      .request_spot("cc2.8xlarge", 6 - spot,
                                    bids[i / 3 % std::size(bids)], {g})
                      .instances.empty();
    }
  }
  EXPECT_GT(reclaims, 3) << refills;
  EXPECT_GT(refills, 3) << reclaims;
  const std::vector<Instance> rest = service.fleet();
  service.terminate(rest);
  service.advance(3600.0);
  EXPECT_EQ(gauge.value(), service.billed_usd());
  EXPECT_TRUE(service.fleet().empty());
}

TEST(Ec2Service, SecurityGroupGotchaBlocksMpi) {
  Ec2Service service(1);
  const auto launch = service.request_on_demand("cc2.8xlarge", 4);
  // The paper had to open intranet TCP ports before mpiexec worked.
  EXPECT_THROW(service.assembly_topology(launch.instances, 64, 0.02), Error);
  service.authorize_intranet_tcp();
  const auto topo = service.assembly_topology(launch.instances, 64, 0.02);
  EXPECT_EQ(topo.ranks(), 64);
  EXPECT_EQ(topo.ranks_per_node(), 16);
  EXPECT_EQ(topo.nodes(), 4);
}

TEST(Ec2Service, SpotInstancesAreReclaimedWhenOutbid) {
  // Bid barely above the current price; over enough market hours a spike
  // must reclaim the instances (the paper's "unpredictable nature of spot
  // requests").
  Ec2Service service(5);
  const int g = service.create_placement_group("x");
  const double now_price =
      service.market().price(instance_type("cc2.8xlarge"), 0);
  auto launch =
      service.request_spot("cc2.8xlarge", 5, now_price * 1.05, {g});
  ASSERT_GT(launch.instances.size(), 0u);
  std::size_t alive = launch.instances.size();
  int reclaim_events = 0;
  for (int hour = 0; hour < 200 && alive > 0; ++hour) {
    const auto reclaimed = service.advance(3600.0);
    if (!reclaimed.empty()) {
      ++reclaim_events;
      for (const auto& inst : reclaimed) {
        EXPECT_TRUE(inst.spot);
      }
      alive -= reclaimed.size();
      EXPECT_EQ(service.fleet().size(), alive);
    }
  }
  EXPECT_GT(reclaim_events, 0);
  EXPECT_EQ(alive, 0u);
}

TEST(Ec2Service, OnDemandInstancesAreNeverReclaimed) {
  Ec2Service service(5);
  service.request_on_demand("cc2.8xlarge", 3);
  for (int hour = 0; hour < 50; ++hour) {
    EXPECT_TRUE(service.advance(3600.0).empty());
  }
  EXPECT_EQ(service.fleet().size(), 3u);
}

TEST(Ec2Service, ReclaimStopsBilling) {
  Ec2Service service(5);
  const int g = service.create_placement_group("x");
  const double p0 = service.market().price(instance_type("cc2.8xlarge"), 0);
  auto launch = service.request_spot("cc2.8xlarge", 2, p0 * 1.01, {g});
  ASSERT_GT(launch.instances.size(), 0u);
  // Run until everything is reclaimed, then a long time more.
  for (int hour = 0; hour < 200 && !service.fleet().empty(); ++hour) {
    service.advance(3600.0);
  }
  ASSERT_TRUE(service.fleet().empty());
  const double billed_at_reclaim = service.billed_usd();
  service.advance(100.0 * 3600.0);
  EXPECT_DOUBLE_EQ(service.billed_usd(), billed_at_reclaim);
}

TEST(Ec2Service, ReclaimStormTakesEverySpotInstanceButNoOnDemand) {
  // Bid absurdly high: the market alone would never reclaim. A storm hour
  // takes every spot instance anyway — and never touches on-demand.
  resil::FaultSpec spec;
  spec.reclaim_storm_rate = 1.0;  // every hour is a storm
  Ec2Service service(5);
  service.set_fault_plan(resil::FaultPlan(spec, 99));
  const int g = service.create_placement_group("x");
  auto spot = service.request_spot("cc2.8xlarge", 4, 1000.0, {g});
  ASSERT_GT(spot.instances.size(), 0u);
  service.request_on_demand("cc2.8xlarge", 2);

  const auto reclaimed = service.advance(3600.0);
  EXPECT_EQ(reclaimed.size(), spot.instances.size());
  for (const auto& inst : reclaimed) {
    EXPECT_TRUE(inst.spot);
  }
  EXPECT_EQ(service.fleet().size(), 2u);  // the on-demand pair survives

  // Reclaimed instances stop accruing: only the 2 on-demand hourly rates
  // keep running after the storm.
  const double accrued_at_storm = service.accrued_usd();
  const double billed_at_storm = service.billed_usd();
  service.advance(3600.0 - 1.0);  // stay inside the next billing hour
  const double on_demand_rate =
      2.0 * instance_type("cc2.8xlarge").on_demand_hourly_usd;
  EXPECT_NEAR(service.accrued_usd() - accrued_at_storm,
              on_demand_rate * (3599.0 / 3600.0), 1e-9);
  EXPECT_DOUBLE_EQ(service.billed_usd() - billed_at_storm, on_demand_rate);
}

TEST(Ec2Service, StormScheduleIsDeterministicPerSeed) {
  resil::FaultSpec spec;
  spec.reclaim_storm_rate = 0.3;
  const resil::FaultPlan plan(spec, 7);
  auto storm_hours = [&](const resil::FaultPlan& p) {
    std::vector<int> hours;
    for (int h = 0; h < 100; ++h) {
      if (p.reclaim_storm(h)) {
        hours.push_back(h);
      }
    }
    return hours;
  };
  const auto first = storm_hours(plan);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 100u);
  // Same (spec, seed) -> the same storm hours, on a fresh plan too.
  EXPECT_EQ(first, storm_hours(resil::FaultPlan(spec, 7)));
  EXPECT_NE(first, storm_hours(resil::FaultPlan(spec, 8)));

  // Two services driven through identical advances reclaim identically.
  auto run_service = [&](Ec2Service& service) {
    service.set_fault_plan(resil::FaultPlan(spec, 7));
    const int g = service.create_placement_group("x");
    service.request_spot("cc2.8xlarge", 4, 1000.0, {g});
    std::vector<std::size_t> reclaim_sizes;
    for (int h = 0; h < 20; ++h) {
      reclaim_sizes.push_back(service.advance(3600.0).size());
    }
    return reclaim_sizes;
  };
  Ec2Service a(5);
  Ec2Service b(5);
  EXPECT_EQ(run_service(a), run_service(b));
  EXPECT_DOUBLE_EQ(a.billed_usd(), b.billed_usd());
  EXPECT_DOUBLE_EQ(a.accrued_usd(), b.accrued_usd());
}

TEST(Ec2Service, AssemblyTopologyTracksPlacementGroups) {
  Ec2Service service(1);
  service.authorize_intranet_tcp();
  const int ga = service.create_placement_group("a");
  const int gb = service.create_placement_group("b");
  auto first = service.request_on_demand("cc2.8xlarge", 1, ga);
  auto second = service.request_on_demand("cc2.8xlarge", 1, gb);
  std::vector<Instance> assembly = first.instances;
  assembly.push_back(second.instances.front());
  const auto topo = service.assembly_topology(assembly, 32, 0.5);
  EXPECT_FALSE(topo.same_group(0, 16));  // ranks on different groups
  EXPECT_TRUE(topo.same_group(0, 15));
  // Not enough cores: 3 nodes of 16 cores cannot host 64 ranks.
  EXPECT_THROW(service.assembly_topology(assembly, 64, 0.0), Error);
}

TEST(Staging, BootImageIsFreePerLaunchButCostlyToPrepare) {
  const std::uint64_t gb20 = 20ull << 30;
  EXPECT_DOUBLE_EQ(staging_time_s(StagingMethod::kBootImage, gb20, 63), 0.0);
  EXPECT_GT(staging_setup_s(StagingMethod::kBootImage, gb20), 300.0);
}

TEST(Staging, NfsSerializesOnTheServer) {
  const std::uint64_t gb1 = 1ull << 30;
  const double one = staging_time_s(StagingMethod::kNfs, gb1, 1);
  const double two = staging_time_s(StagingMethod::kNfs, gb1, 2);
  const double many = staging_time_s(StagingMethod::kNfs, gb1, 63);
  // Linear in the client count above a fixed service-setup constant.
  EXPECT_NEAR(many - one, 62.0 * (two - one), 1e-6);
  EXPECT_GT(many, 2.0 * one);
  // EBS hydrates per instance in parallel: width-independent.
  EXPECT_DOUBLE_EQ(staging_time_s(StagingMethod::kEbsVolumes, gb1, 1),
                   staging_time_s(StagingMethod::kEbsVolumes, gb1, 63));
}

TEST(Staging, RecommendationMatchesThePapersChoice) {
  // Large meshes, wide assembly, image reused across many launches: the
  // resized boot image wins — exactly what §VI-D decided.
  const std::uint64_t mesh_bytes = 8ull << 30;
  EXPECT_EQ(recommend_staging(mesh_bytes, 63, 20),
            StagingMethod::kBootImage);
  // A single launch of a single instance with a small input: not worth
  // baking an image.
  EXPECT_NE(recommend_staging(100 << 20, 1, 1), StagingMethod::kBootImage);
}

TEST(Staging, Validation) {
  EXPECT_THROW(staging_time_s(StagingMethod::kNfs, 1, 0), Error);
  EXPECT_THROW(recommend_staging(1, 1, 0), Error);
  EXPECT_EQ(to_string(StagingMethod::kEbsVolumes), "EBS volumes");
}

}  // namespace
}  // namespace hetero::cloud
