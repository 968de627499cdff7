#pragma once

/// \file ec2_service.hpp
/// The IaaS service simulator: instance launch (on-demand and spot),
/// placement groups, the security-group gotcha of §VI-D, whole-instance
/// billing, and assembly of launched instances into a netsim topology.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/instance_types.hpp"
#include "cloud/spot_market.hpp"
#include "netsim/topology.hpp"
#include "resil/fault_plan.hpp"
#include "support/rng.hpp"

namespace hetero::cloud {

struct Instance {
  int id = 0;
  std::string type;
  int placement_group = 0;
  bool spot = false;
  /// Price this instance accrues per hour (spot: market price at launch).
  double hourly_usd = 0.0;
  /// Spot bid this instance was acquired under (0 for on-demand). When the
  /// market price rises above it the service reclaims the instance.
  double bid_usd = 0.0;
  double launched_at_s = 0.0;
  /// Intranet address assigned by the service (for the mpiexec hosts file).
  std::string private_ip;
};

/// Result of a launch request.
struct Launch {
  std::vector<Instance> instances;
  /// Boot/setup delay until the instances are usable.
  double ready_after_s = 0.0;
};

class Ec2Service {
 public:
  explicit Ec2Service(std::uint64_t seed);

  /// Simulation clock (seconds since service creation).
  double now_s() const { return clock_s_; }

  /// Advances the clock. At every hour boundary crossed, spot instances
  /// whose bid is below the hour's market price are *reclaimed* (terminated
  /// by the vendor, billing stopped); the reclaimed instances are returned
  /// so the caller can react — the unpredictability the paper warns about.
  /// Hours the fault plan marks as a reclaim storm take *every* spot
  /// instance, however high the bid.
  std::vector<Instance> advance(double seconds);

  /// Installs injected reclaim storms. The plan's hour schedule is a pure
  /// hash of its seed, so campaigns replay identically at any parallelism.
  void set_fault_plan(resil::FaultPlan plan) { fault_plan_ = std::move(plan); }

  /// Placement groups (cluster-compute only).
  int create_placement_group(const std::string& name);

  /// The paper had to open intranet TCP ports before MPI ranks could talk.
  void authorize_intranet_tcp() { intranet_tcp_open_ = true; }
  bool intranet_tcp_open() const { return intranet_tcp_open_; }

  /// On-demand launch: always fulfilled (the vendor's pitch), priced at the
  /// type's on-demand rate.
  Launch request_on_demand(const std::string& type_name, int count,
                           std::optional<int> placement_group = std::nullopt);

  /// Spot launch at `bid` USD/hour: possibly partially fulfilled (or not at
  /// all); fulfilled instances are spread over `groups` round-robin.
  Launch request_spot(const std::string& type_name, int count, double bid,
                      const std::vector<int>& groups);

  /// Stops the instances and their billing. Throws, terminating none of
  /// them, when one is not running or is listed twice.
  void terminate(const std::vector<Instance>& instances);

  /// Amazon-style billing: every started instance-hour is charged in full.
  double billed_usd() const;
  /// Exact pro-rated accrual (for per-iteration cost analysis).
  double accrued_usd() const;

  /// Running instances.
  const std::vector<Instance>& fleet() const { return fleet_; }

  SpotMarket& market() { return market_; }

  /// Builds the interconnect topology of an assembly: `ranks` MPI processes
  /// packed onto the instances in order, 10GbE between instances, shared
  /// memory within, and `cross_group_penalty` between placement groups.
  /// Requires the security group to be open (MPI cannot communicate
  /// otherwise — the gotcha is an error here, as it was in practice).
  netsim::Topology assembly_topology(const std::vector<Instance>& instances,
                                     int ranks,
                                     double cross_group_penalty) const;

 private:
  struct Charge {
    int instance_id = 0;
    double hourly_usd = 0.0;
    double start_s = 0.0;
    double end_s = -1.0;  // -1: still running
  };

  Instance make_instance(const InstanceType& type, bool spot, double price,
                         double bid, int group);
  void close_charge(int instance_id);
  /// billed_usd() as of now, re-summed only when it can have changed.
  double current_bill();

  std::uint64_t seed_;
  Rng rng_;
  SpotMarket market_;
  resil::FaultPlan fault_plan_;
  double clock_s_ = 0.0;
  int next_instance_id_ = 1;
  int next_group_id_ = 0;
  bool intranet_tcp_open_ = false;
  /// Both sorted by instance id: ids are issued in increasing order.
  std::vector<Instance> fleet_;
  std::vector<Charge> charges_;
  /// billed_usd() at the last re-sum, which holds while the clock is at
  /// most bill_fresh_until_s_: until a charge opens or closes, or an open
  /// charge starts its next whole hour.
  double bill_ = 0.0;
  double bill_fresh_until_s_ = -1.0;
};

}  // namespace hetero::cloud
