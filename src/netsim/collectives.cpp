#include "netsim/collectives.hpp"

#include <algorithm>
#include <cmath>

namespace hetero::netsim {

namespace {

int ceil_log2(int n) {
  int bits = 0;
  int v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

/// Cost of one tree/ring step that may cross nodes. When several ranks share
/// a node, early tree levels stay on-node (ranks are placed consecutively),
/// so a fraction of steps uses the cheap intra-node fabric.
double step_time(const Topology& topo, std::uint64_t bytes, bool off_node) {
  const Fabric& fabric =
      off_node ? topo.inter_node_fabric() : topo.intra_node_fabric();
  double t = fabric.message_time(bytes);
  if (off_node) {
    t *= topo.contention_scale();
    if (topo.cross_group_penalty() > 0.0) {
      // Trees do not respect group boundaries; assume a proportional share
      // of steps crosses groups.
      t *= 1.0 + 0.5 * topo.cross_group_penalty();
    }
  }
  return t;
}

/// Number of tree levels that can be satisfied inside a node.
int on_node_levels(const Topology& topo) {
  return ceil_log2(std::min(topo.ranks(), topo.ranks_per_node()));
}

double tree_time(const Topology& topo, std::uint64_t bytes) {
  const int levels = ceil_log2(topo.ranks());
  const int local = std::min(levels, on_node_levels(topo));
  double t = 0.0;
  for (int level = 0; level < levels; ++level) {
    t += step_time(topo, bytes, /*off_node=*/level >= local);
  }
  return t;
}

}  // namespace

double barrier_time(const Topology& topo) {
  if (topo.ranks() <= 1) {
    return 0.0;
  }
  // Dissemination barrier: ceil(log2 p) rounds of zero-payload messages.
  return tree_time(topo, 8);
}

double allreduce_time(const Topology& topo, std::uint64_t bytes) {
  if (topo.ranks() <= 1) {
    return 0.0;
  }
  // Recursive doubling: log2 p exchange rounds of the full payload.
  return tree_time(topo, bytes);
}

double allgather_time(const Topology& topo, std::uint64_t bytes_per_rank) {
  const int p = topo.ranks();
  if (p <= 1) {
    return 0.0;
  }
  // Ring: p-1 steps, payload grows but per-step send is bytes_per_rank ×
  // (accumulated blocks) / steps ≈ bytes_per_rank per step for the classic
  // algorithm that forwards one block per step.
  const int off_steps =
      p <= topo.ranks_per_node() ? 0 : (p - 1) * (topo.nodes() - 1) /
                                           std::max(1, topo.nodes());
  const int on_steps = (p - 1) - off_steps;
  return static_cast<double>(on_steps) *
             topo.intra_node_fabric().message_time(bytes_per_rank) +
         static_cast<double>(off_steps) *
             step_time(topo, bytes_per_rank, true);
}

double alltoall_time(const Topology& topo, std::uint64_t bytes_per_pair) {
  const int p = topo.ranks();
  if (p <= 1) {
    return 0.0;
  }
  // Pairwise exchange: p-1 rounds; every round every rank sends one block,
  // so the node NIC carries ranks_per_node flows.
  const int rounds = p - 1;
  const int off_rounds =
      topo.nodes() <= 1
          ? 0
          : rounds * (topo.nodes() - 1) / std::max(1, topo.nodes());
  const int on_rounds = rounds - off_rounds;
  double t = static_cast<double>(on_rounds) *
             topo.intra_node_fabric().message_time(bytes_per_pair);
  if (off_rounds > 0) {
    t += static_cast<double>(off_rounds) *
         topo.inter_node_fabric().injection_time(bytes_per_pair,
                                                 topo.ranks_per_node()) *
         topo.contention_scale();
  }
  return t;
}

}  // namespace hetero::netsim
