#include "cloud/ec2_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace hetero::cloud {

namespace {

struct CloudMetrics {
  obs::Counter& instances_launched =
      obs::metrics().counter("cloud.instances_launched");
  obs::Counter& spot_reclaims = obs::metrics().counter("cloud.spot_reclaims");
  obs::Gauge& billed_usd = obs::metrics().gauge("cloud.billed_usd");
};

CloudMetrics& cloud_metrics() {
  static CloudMetrics metrics;
  return metrics;
}

}  // namespace

Ec2Service::Ec2Service(std::uint64_t seed)
    : seed_(seed), rng_(seed), market_(seed ^ 0x5107B007ULL) {}

std::vector<Instance> Ec2Service::advance(double seconds) {
  HETERO_REQUIRE(seconds >= 0.0, "the service clock cannot run backwards");
  const auto hour_before = static_cast<std::int64_t>(clock_s_ / 3600.0);
  clock_s_ += seconds;
  const auto hour_after = static_cast<std::int64_t>(clock_s_ / 3600.0);

  std::vector<Instance> reclaimed;
  for (std::int64_t h = hour_before + 1; h <= hour_after; ++h) {
    const bool storm = fault_plan_.reclaim_storm(h);
    if (storm) {
      obs::metrics().counter("resil.reclaim_storms").increment();
      obs::trace_instant("reclaim_storm", "resil",
                         static_cast<double>(h) * 3600.0);
    }
    std::erase_if(fleet_, [&](const Instance& inst) {
      const bool lost =
          inst.spot &&
          (storm || inst.bid_usd < market_.price(instance_type(inst.type), h));
      if (lost) {
        reclaimed.push_back(inst);
        close_charge(inst.id);
      }
      return lost;
    });
  }
  if (!reclaimed.empty()) {
    // The unpredictability the paper warns about: surface it on the trace
    // timeline (service wall clock) and in the metric totals.
    cloud_metrics().spot_reclaims.add(static_cast<double>(reclaimed.size()));
    obs::trace_instant("spot_reclaim", "cloud", clock_s_, "instances",
                       static_cast<double>(reclaimed.size()));
  }
  cloud_metrics().billed_usd.set(current_bill());
  return reclaimed;
}

void Ec2Service::close_charge(int instance_id) {
  const auto it =
      std::ranges::lower_bound(charges_, instance_id, {}, &Charge::instance_id);
  if (it == charges_.end() || it->instance_id != instance_id ||
      it->end_s >= 0.0) {
    throw Error("no open charge for instance " + std::to_string(instance_id));
  }
  it->end_s = clock_s_;
  bill_fresh_until_s_ = -1.0;
}

double Ec2Service::current_bill() {
  if (clock_s_ <= bill_fresh_until_s_) {
    return bill_;
  }
  bill_ = billed_usd();
  // An open charge that bills n hours keeps billing n while the clock is
  // at most start + 3600 n in exact arithmetic: (clock - start) / 3600
  // rounds monotonically and 3600 n is exact, so it stays at most n. The
  // double below the rounded sum is never above that exact bound.
  bill_fresh_until_s_ = std::numeric_limits<double>::infinity();
  for (const auto& charge : charges_) {
    if (charge.end_s < 0.0) {
      const double hours = std::max(0.0, clock_s_ - charge.start_s) / 3600.0;
      const double until =
          charge.start_s + 3600.0 * std::ceil(std::max(hours, 1e-9));
      bill_fresh_until_s_ = std::min(
          bill_fresh_until_s_,
          std::nextafter(until, -std::numeric_limits<double>::infinity()));
    }
  }
  return bill_;
}

int Ec2Service::create_placement_group(const std::string& name) {
  HETERO_REQUIRE(!name.empty(), "placement group needs a name");
  return next_group_id_++;
}

Instance Ec2Service::make_instance(const InstanceType& type, bool spot,
                                   double price, double bid, int group) {
  Instance inst;
  inst.id = next_instance_id_++;
  inst.type = type.name;
  inst.placement_group = group;
  inst.spot = spot;
  inst.hourly_usd = price;
  inst.bid_usd = bid;
  inst.launched_at_s = clock_s_;
  inst.private_ip = "10.0." + std::to_string(inst.id / 256) + "." +
                    std::to_string(inst.id % 256);
  charges_.push_back({inst.id, price, clock_s_, -1.0});
  bill_fresh_until_s_ = -1.0;
  cloud_metrics().instances_launched.increment();
  return inst;
}

Launch Ec2Service::request_on_demand(const std::string& type_name, int count,
                                     std::optional<int> placement_group) {
  const InstanceType& type = instance_type(type_name);
  HETERO_REQUIRE(count >= 1, "request at least one instance");
  HETERO_REQUIRE(!placement_group || type.cluster_compute,
                 "placement groups require a Cluster Compute type");
  HETERO_REQUIRE(!placement_group || *placement_group < next_group_id_,
                 "placement group does not exist");
  Launch launch;
  for (int i = 0; i < count; ++i) {
    launch.instances.push_back(make_instance(type, false,
                                             type.on_demand_hourly_usd, 0.0,
                                             placement_group.value_or(0)));
  }
  fleet_.insert(fleet_.end(), launch.instances.begin(),
                launch.instances.end());
  // Concurrent boot: one image start, mild size dependence.
  launch.ready_after_s = 120.0 + 20.0 * std::log2(1.0 + count) +
                         rng_.uniform(0.0, 30.0);
  return launch;
}

Launch Ec2Service::request_spot(const std::string& type_name, int count,
                                double bid, const std::vector<int>& groups) {
  const InstanceType& type = instance_type(type_name);
  HETERO_REQUIRE(count >= 1, "request at least one instance");
  HETERO_REQUIRE(!groups.empty(), "spot request needs target groups");
  for (int g : groups) {
    HETERO_REQUIRE(g < next_group_id_, "placement group does not exist");
  }
  const auto hour = static_cast<std::int64_t>(clock_s_ / 3600.0);
  const int granted = market_.fulfill(type, bid, count, hour);
  const double price = market_.price(type, hour);
  Launch launch;
  for (int i = 0; i < granted; ++i) {
    launch.instances.push_back(make_instance(
        type, true, price, bid,
        groups[static_cast<std::size_t>(i) % groups.size()]));
  }
  fleet_.insert(fleet_.end(), launch.instances.begin(),
                launch.instances.end());
  // Spot requests take longer: the market has to clear first.
  launch.ready_after_s =
      240.0 + 40.0 * std::log2(1.0 + std::max(1, granted)) +
      rng_.uniform(0.0, 120.0);
  return launch;
}

void Ec2Service::terminate(const std::vector<Instance>& instances) {
  std::vector<int> ids;
  ids.reserve(instances.size());
  for (const auto& inst : instances) {
    ids.push_back(inst.id);
  }
  std::ranges::sort(ids);
  const auto running = [&](int id) {
    return std::ranges::binary_search(fleet_, id, {}, &Instance::id);
  };
  HETERO_REQUIRE(std::ranges::adjacent_find(ids) == ids.end() &&
                     std::ranges::all_of(ids, running),
                 "terminating an instance that is not running");
  for (const int id : ids) {
    close_charge(id);
  }
  std::erase_if(fleet_, [&](const Instance& inst) {
    return std::ranges::binary_search(ids, inst.id);
  });
}

double Ec2Service::billed_usd() const {
  double total = 0.0;
  for (const auto& charge : charges_) {
    const double end = charge.end_s < 0.0 ? clock_s_ : charge.end_s;
    const double hours = std::max(0.0, end - charge.start_s) / 3600.0;
    total += std::ceil(std::max(hours, 1e-9)) * charge.hourly_usd;
  }
  return total;
}

double Ec2Service::accrued_usd() const {
  double total = 0.0;
  for (const auto& charge : charges_) {
    const double end = charge.end_s < 0.0 ? clock_s_ : charge.end_s;
    total += (std::max(0.0, end - charge.start_s) / 3600.0) *
             charge.hourly_usd;
  }
  return total;
}

netsim::Topology Ec2Service::assembly_topology(
    const std::vector<Instance>& instances, int ranks,
    double cross_group_penalty) const {
  HETERO_REQUIRE(!instances.empty(), "assembly needs instances");
  HETERO_REQUIRE(intranet_tcp_open_,
                 "security group blocks MPI: call authorize_intranet_tcp() "
                 "first (the paper hit exactly this)");
  const InstanceType& type = instance_type(instances.front().type);
  HETERO_REQUIRE(ranks <= static_cast<int>(instances.size()) * type.cores,
                 "not enough cores across the assembly");
  netsim::TopologySpec spec;
  spec.ranks = ranks;
  spec.ranks_per_node = type.cores;
  spec.cross_group_penalty = cross_group_penalty;
  const int nodes_needed = (ranks + type.cores - 1) / type.cores;
  spec.node_group.reserve(static_cast<std::size_t>(nodes_needed));
  for (int n = 0; n < nodes_needed; ++n) {
    spec.node_group.push_back(
        instances[static_cast<std::size_t>(n)].placement_group);
  }
  return netsim::Topology(std::move(spec),
                          netsim::Fabric::ten_gigabit_ethernet(),
                          netsim::Fabric::shared_memory());
}

}  // namespace hetero::cloud
