// Tests for the network models: fabric cost functions, topology placement,
// and collective cost formulas.

#include <gtest/gtest.h>

#include "netsim/collectives.hpp"
#include "netsim/fabric.hpp"
#include "netsim/topology.hpp"
#include "support/error.hpp"

namespace hetero::netsim {
namespace {

TEST(Fabric, MessageTimeIsLatencyPlusBandwidth) {
  Fabric f(FabricParams{.name = "test",
                        .latency_s = 1e-5,
                        .bandwidth_bps = 1e8,
                        .eager_threshold_bytes = 1 << 20,
                        .rendezvous_extra_s = 0.0});
  EXPECT_NEAR(f.message_time(0), 1e-5, 1e-12);
  EXPECT_NEAR(f.message_time(100000), 1e-5 + 1e-3, 1e-9);
}

TEST(Fabric, RendezvousKicksInAtThreshold) {
  Fabric f(FabricParams{.name = "test",
                        .latency_s = 1e-5,
                        .bandwidth_bps = 1e8,
                        .eager_threshold_bytes = 1024,
                        .rendezvous_extra_s = 5e-5});
  const double below = f.message_time(1023);
  const double at = f.message_time(1024);
  EXPECT_GT(at - below, 4.9e-5);
}

TEST(Fabric, MessageTimeMonotoneInSize) {
  const Fabric f = Fabric::gigabit_ethernet();
  double prev = 0.0;
  for (std::uint64_t b = 1; b <= (1u << 22); b *= 4) {
    const double t = f.message_time(b);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Fabric, InjectionSharesNodeBandwidth) {
  const Fabric f = Fabric::ten_gigabit_ethernet();
  const double one = f.injection_time(1 << 20, 1);
  const double sixteen = f.injection_time(1 << 20, 16);
  // Sixteen concurrent flows through one NIC must be much slower than one.
  EXPECT_GT(sixteen, 8.0 * one * 0.5);
  EXPECT_GT(sixteen, one);
}

TEST(Fabric, BuiltinFabricRanking) {
  // Latency: IB << 1GbE and 10GbE (virtualized).
  EXPECT_LT(Fabric::infiniband_ddr_4x().params().latency_s,
            Fabric::gigabit_ethernet().params().latency_s / 5.0);
  // Bandwidth: 1GbE << 10GbE <= IB.
  EXPECT_LT(Fabric::gigabit_ethernet().params().bandwidth_bps * 5.0,
            Fabric::ten_gigabit_ethernet().params().bandwidth_bps);
  EXPECT_LE(Fabric::ten_gigabit_ethernet().params().bandwidth_bps,
            Fabric::infiniband_ddr_4x().params().bandwidth_bps * 1.5);
  // Shared memory beats every wire on latency.
  EXPECT_LT(Fabric::shared_memory().params().latency_s,
            Fabric::infiniband_ddr_4x().params().latency_s);
}

TEST(Fabric, EffectiveBandwidthApproachesLineRate) {
  const Fabric f = Fabric::gigabit_ethernet();
  const double eff = f.effective_bandwidth(64 << 20);
  EXPECT_GT(eff, 0.9 * f.params().bandwidth_bps);
  EXPECT_LE(eff, f.params().bandwidth_bps);
}

TEST(Fabric, RejectsBadParams) {
  EXPECT_THROW(Fabric(FabricParams{.name = "bad", .bandwidth_bps = 0.0}),
               Error);
  EXPECT_THROW(
      Fabric(FabricParams{
          .name = "bad", .latency_s = -1.0, .bandwidth_bps = 1.0}),
      Error);
}

TEST(Topology, NodeAssignmentIsBlocked) {
  auto topo = Topology::uniform(10, 4, Fabric::gigabit_ethernet(),
                                Fabric::shared_memory());
  EXPECT_EQ(topo.nodes(), 3);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_EQ(topo.node_of(9), 2);
  EXPECT_TRUE(topo.same_node(0, 3));
  EXPECT_FALSE(topo.same_node(3, 4));
}

TEST(Topology, IntraNodeMessagesUseSharedMemory) {
  auto topo = Topology::uniform(8, 4, Fabric::gigabit_ethernet(),
                                Fabric::shared_memory());
  const double intra = topo.message_time(0, 1, 4096);
  const double inter = topo.message_time(0, 4, 4096);
  EXPECT_LT(intra * 5.0, inter);
  EXPECT_DOUBLE_EQ(topo.message_time(2, 2, 4096), 0.0);
}

TEST(Topology, CrossGroupPenaltyApplies) {
  TopologySpec spec;
  spec.ranks = 4;
  spec.ranks_per_node = 1;
  spec.node_group = {0, 0, 1, 1};
  spec.cross_group_penalty = 0.5;
  Topology topo(spec, Fabric::ten_gigabit_ethernet(),
                Fabric::shared_memory());
  const double same = topo.message_time(0, 1, 1 << 16);
  const double cross = topo.message_time(0, 2, 1 << 16);
  EXPECT_NEAR(cross, same * 1.5, same * 1e-9);
}

TEST(Topology, RejectsBadSpecs) {
  TopologySpec spec;
  spec.ranks = 4;
  spec.ranks_per_node = 2;
  spec.node_group = {0};  // wrong size: 2 nodes expected
  EXPECT_THROW(Topology(spec, Fabric::gigabit_ethernet(),
                        Fabric::shared_memory()),
               Error);
}

TEST(Topology, ExchangeTimeGrowsWithOffNodeBytes) {
  auto topo = Topology::uniform(16, 4, Fabric::gigabit_ethernet(),
                                Fabric::shared_memory());
  const double small = topo.exchange_time(1 << 10, 2, 1 << 10, 2);
  const double big = topo.exchange_time(1 << 20, 2, 1 << 10, 2);
  EXPECT_GT(big, small * 10.0);
}

TEST(Topology, ContentionScaleGrowsWithNodes) {
  auto one = Topology::uniform(16, 16, Fabric::gigabit_ethernet(),
                               Fabric::shared_memory());
  EXPECT_DOUBLE_EQ(one.contention_scale(), 1.0);  // single node
  auto four = Topology::uniform(16, 4, Fabric::gigabit_ethernet(),
                                Fabric::shared_memory());
  EXPECT_NEAR(four.contention_scale(), 1.0 + 24.0 * 3.0 / 32.0, 1e-12);
  // InfiniBand barely notices the same node count.
  auto ib = Topology::uniform(16, 4, Fabric::infiniband_ddr_4x(),
                              Fabric::shared_memory());
  EXPECT_LT(ib.contention_scale(), 1.05);
}

TEST(Topology, ContentionAffectsOnlyOffNodeMessages) {
  auto topo = Topology::uniform(8, 4, Fabric::gigabit_ethernet(),
                                Fabric::shared_memory());
  // Intra-node messages use shared memory: no contention factor.
  const double intra = topo.message_time(0, 1, 4096);
  auto single = Topology::uniform(4, 4, Fabric::gigabit_ethernet(),
                                  Fabric::shared_memory());
  EXPECT_DOUBLE_EQ(intra, single.message_time(0, 1, 4096));
  // Inter-node messages carry it.
  EXPECT_GT(topo.message_time(0, 4, 4096),
            Fabric::gigabit_ethernet().message_time(4096));
}

TEST(Collectives, SingleRankIsFree) {
  auto topo = Topology::uniform(1, 1, Fabric::gigabit_ethernet(),
                                Fabric::shared_memory());
  EXPECT_DOUBLE_EQ(barrier_time(topo), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_time(topo, 8), 0.0);
  EXPECT_DOUBLE_EQ(alltoall_time(topo, 1024), 0.0);
}

namespace {
/// Fabric without switch contention, for tests of the pure algorithmic
/// scaling of the collective cost formulas.
Fabric flat_fabric() {
  FabricParams p = Fabric::gigabit_ethernet().params();
  p.oversubscription = 0.0;
  return Fabric(p);
}
}  // namespace

TEST(Collectives, AllreduceScalesLogarithmicallyWithoutContention) {
  auto t8 = Topology::uniform(8, 1, flat_fabric(), Fabric::shared_memory());
  auto t64 = Topology::uniform(64, 1, flat_fabric(), Fabric::shared_memory());
  const double a8 = allreduce_time(t8, 8);
  const double a64 = allreduce_time(t64, 8);
  // log2(64)/log2(8) = 2: doubling, not 8x.
  EXPECT_NEAR(a64 / a8, 2.0, 0.3);
}

TEST(Collectives, ContentionAmplifiesLargeEthernetJobs) {
  // With the oversubscription model the same comparison degrades
  // super-logarithmically — the effect behind the paper's 1GbE curves.
  auto t8 = Topology::uniform(8, 1, Fabric::gigabit_ethernet(),
                              Fabric::shared_memory());
  auto t64 = Topology::uniform(64, 1, Fabric::gigabit_ethernet(),
                               Fabric::shared_memory());
  EXPECT_GT(allreduce_time(t64, 8) / allreduce_time(t8, 8), 4.0);
  // InfiniBand stays close to the algorithmic bound.
  auto i8 = Topology::uniform(8, 1, Fabric::infiniband_ddr_4x(),
                              Fabric::shared_memory());
  auto i64 = Topology::uniform(64, 1, Fabric::infiniband_ddr_4x(),
                               Fabric::shared_memory());
  EXPECT_LT(allreduce_time(i64, 8) / allreduce_time(i8, 8), 3.5);
}

TEST(Collectives, MultiRankNodesCheapenEarlyTreeLevels) {
  auto spread = Topology::uniform(16, 1, Fabric::gigabit_ethernet(),
                                  Fabric::shared_memory());
  auto packed = Topology::uniform(16, 16, Fabric::gigabit_ethernet(),
                                  Fabric::shared_memory());
  EXPECT_LT(allreduce_time(packed, 8), allreduce_time(spread, 8) / 5.0);
}

TEST(Collectives, LatencyRankingCarriesOver) {
  auto ib = Topology::uniform(64, 12, Fabric::infiniband_ddr_4x(),
                              Fabric::shared_memory());
  auto ge = Topology::uniform(64, 4, Fabric::gigabit_ethernet(),
                              Fabric::shared_memory());
  EXPECT_LT(allreduce_time(ib, 8), allreduce_time(ge, 8) / 3.0);
}

TEST(Collectives, AlltoallCostsMoreThanAllgather) {
  auto topo = Topology::uniform(32, 4, Fabric::gigabit_ethernet(),
                                Fabric::shared_memory());
  EXPECT_GE(alltoall_time(topo, 8192), allgather_time(topo, 8192) * 0.5);
}

}  // namespace
}  // namespace hetero::netsim
