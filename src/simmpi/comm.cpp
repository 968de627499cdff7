#include "simmpi/comm.hpp"

#include <algorithm>
#include <array>

#include "netsim/collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetero::simmpi {

namespace {

/// Registry handles hoisted out of the per-message paths (the registry
/// lookup takes a mutex; these references are stable for process lifetime).
struct CommMetrics {
  obs::Counter& messages = obs::metrics().counter("simmpi.messages");
  obs::Counter& p2p_bytes = obs::metrics().counter("simmpi.p2p_bytes");
  obs::Counter& collectives = obs::metrics().counter("simmpi.collectives");
  obs::Counter& collective_wait_s =
      obs::metrics().counter("simmpi.collective_wait_s");
};

CommMetrics& comm_metrics() {
  static CommMetrics metrics;
  return metrics;
}

/// Element-wise combine for reductions over a flat byte image of T.
template <class T>
std::vector<std::byte> combine_reduce(
    const std::vector<std::vector<std::byte>>& inputs, ReduceOp op) {
  const std::size_t bytes = inputs.front().size();
  for (const auto& in : inputs) {
    HETERO_REQUIRE(in.size() == bytes,
                   "allreduce: ranks passed differently sized inputs");
  }
  const std::size_t n = bytes / sizeof(T);
  std::vector<T> acc(n);
  std::memcpy(acc.data(), inputs.front().data(), bytes);
  for (std::size_t r = 1; r < inputs.size(); ++r) {
    std::vector<T> other(n);
    std::memcpy(other.data(), inputs[r].data(), bytes);
    for (std::size_t i = 0; i < n; ++i) {
      switch (op) {
        case ReduceOp::kSum: acc[i] += other[i]; break;
        case ReduceOp::kMin: acc[i] = std::min(acc[i], other[i]); break;
        case ReduceOp::kMax: acc[i] = std::max(acc[i], other[i]); break;
      }
    }
  }
  std::vector<std::byte> out(bytes);
  std::memcpy(out.data(), acc.data(), bytes);
  return out;
}

}  // namespace

Comm Comm::split(int color, int key) {
  // Share (color, key, world rank) across the current communicator.
  const std::vector<std::int64_t> mine{color, key, rank_};
  const auto all = allgatherv(std::span<const std::int64_t>(mine));
  HETERO_CHECK(all.size() == static_cast<std::size_t>(size()) * 3);
  std::vector<std::array<std::int64_t, 2>> picks;  // (key, world rank)
  for (std::size_t i = 0; i + 2 < all.size(); i += 3) {
    if (all[i] == color) {
      picks.push_back({all[i + 1], all[i + 2]});
    }
  }
  std::sort(picks.begin(), picks.end());
  std::vector<int> members;
  members.reserve(picks.size());
  int group_rank = -1;
  for (const auto& p : picks) {
    if (p[1] == rank_) {
      group_rank = static_cast<int>(members.size());
    }
    members.push_back(static_cast<int>(p[1]));
  }
  HETERO_CHECK(group_rank >= 0);

  Comm sub(*runtime_, rank_);
  sub.group_rank_ = group_rank;
  const int group_size = static_cast<int>(members.size());
  sub.group_ = runtime_->intern_group(std::move(members));
  sub.members_ = runtime_->group(sub.group_).members;
  // Approximate sub-communicator costs with a uniform topology of the same
  // fabrics (exact placement would need the member->node mapping, which the
  // uniform packing makes a fair approximation of).
  const netsim::Topology& world = runtime_->topology();
  sub.group_topo_ = std::make_shared<netsim::Topology>(
      netsim::Topology::uniform(group_size,
                                std::min(world.ranks_per_node(), group_size),
                                world.inter_node_fabric(),
                                world.intra_node_fabric(),
                                world.cross_group_penalty()));
  return sub;
}

void Comm::send_bytes(std::vector<std::byte> payload, int dest, int tag) {
  const int world_dest = world_of(dest);
  auto& stats = runtime_->stats_[static_cast<std::size_t>(rank_)];
  ++stats.messages_sent;
  stats.bytes_sent += payload.size();
  if (!stats.bytes_by_dest.empty()) {
    stats.bytes_by_dest[static_cast<std::size_t>(world_dest)] +=
        payload.size();
  }

  // Sender-side overhead: push the bytes into the NIC/shared segment. The
  // wire/latency part is charged to the receiver at matching time.
  const netsim::Topology& topo = runtime_->topology();
  const netsim::Fabric& fabric = topo.same_node(rank_, world_dest)
                                     ? topo.intra_node_fabric()
                                     : topo.inter_node_fabric();
  const double bytes = static_cast<double>(payload.size());
  const double before = now();
  const double overhead =
      (0.5 * fabric.params().latency_s +
       bytes / fabric.params().bandwidth_bps) *
      runtime_->degradation_.factor_at(before);
  clock().advance(overhead);
  stats.comm_seconds += overhead;

  if (auto* trace = obs::current_trace()) {
    trace->complete(rank_, "send", "simmpi", before, now(), "bytes", bytes);
  }
  auto& metrics = comm_metrics();
  metrics.messages.increment();
  metrics.p2p_bytes.add(bytes);

  runtime_->post_send(rank_, world_dest, tag, group_, std::move(payload),
                      now());
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag) {
  auto env = runtime_->blocking_recv(rank_, world_of(source), tag, group_);
  auto& stats = runtime_->stats_[static_cast<std::size_t>(rank_)];
  ++stats.messages_received;
  stats.bytes_received += env.payload.size();

  const double before = now();
  // Degradation is sampled at the departure instant so sender and receiver
  // agree on the window regardless of host-thread scheduling.
  const double transfer =
      runtime_->topology().message_time(env.source, rank_,
                                        env.payload.size()) *
      runtime_->degradation_.factor_at(env.depart_time);
  clock().advance_to(env.depart_time + transfer);
  stats.comm_seconds += now() - before;
  if (auto* trace = obs::current_trace()) {
    trace->complete(rank_, "recv", "simmpi", before, now(), "bytes",
                    static_cast<double>(env.payload.size()));
  }
  return std::move(env.payload);
}

void Comm::finish_collective(double exit_time, const char* name,
                             double bytes) {
  auto& stats = runtime_->stats_[static_cast<std::size_t>(rank_)];
  ++stats.collectives;
  const double before = now();
  clock().advance_to(exit_time);
  const double waited = now() - before;
  stats.comm_seconds += waited;
  if (auto* trace = obs::current_trace()) {
    trace->complete(rank_, name, "simmpi", before, now(), "bytes", bytes);
  }
  auto& metrics = comm_metrics();
  metrics.collectives.increment();
  metrics.collective_wait_s.add(waited);
}

void Comm::barrier() {
  const double cost = netsim::barrier_time(topology());
  double exit_time = 0.0;
  run_collective("barrier", {}, nullptr, cost, &exit_time);
  finish_collective(exit_time, "barrier");
}

std::vector<std::byte> Comm::bcast_bytes(std::vector<std::byte> input,
                                         int root) {
  HETERO_REQUIRE(root >= 0 && root < size(), "bcast: root out of range");
  // Cost depends on the payload size, which only the root knows up front;
  // non-roots pass 0 and the runtime takes the max over ranks.
  const double cost =
      rank() == root ? netsim::bcast_time(topology(), input.size()) : 0.0;
  double exit_time = 0.0;
  auto result = run_collective(
      "bcast", std::move(input),
      [root](const std::vector<std::vector<std::byte>>& inputs) {
        return inputs[static_cast<std::size_t>(root)];
      },
      cost, &exit_time);
  finish_collective(exit_time, "bcast", static_cast<double>(result.size()));
  return result;
}

std::vector<double> Comm::allreduce(std::span<const double> data,
                                    ReduceOp op) {
  const auto raw = reduce_like(std::as_bytes(data), op, /*is_double=*/true,
                               data.size_bytes());
  std::vector<double> out(raw.size() / sizeof(double));
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

std::vector<std::int64_t> Comm::allreduce(std::span<const std::int64_t> data,
                                          ReduceOp op) {
  const auto raw = reduce_like(std::as_bytes(data), op, /*is_double=*/false,
                               data.size_bytes());
  std::vector<std::int64_t> out(raw.size() / sizeof(std::int64_t));
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

double Comm::allreduce(double value, ReduceOp op) {
  return allreduce(std::span<const double>(&value, 1), op).front();
}

std::int64_t Comm::allreduce(std::int64_t value, ReduceOp op) {
  return allreduce(std::span<const std::int64_t>(&value, 1), op).front();
}

std::vector<std::byte> Comm::reduce_like(std::span<const std::byte> input,
                                         ReduceOp op, bool is_double,
                                         std::uint64_t cost_bytes) {
  const double cost = netsim::allreduce_time(topology(), cost_bytes);
  std::vector<std::byte> in(input.begin(), input.end());
  double exit_time = 0.0;
  auto result = run_collective(
      "allreduce", std::move(in),
      [op, is_double](const std::vector<std::vector<std::byte>>& inputs) {
        return is_double ? combine_reduce<double>(inputs, op)
                         : combine_reduce<std::int64_t>(inputs, op);
      },
      cost, &exit_time);
  finish_collective(exit_time, "allreduce",
                    static_cast<double>(cost_bytes));
  return result;
}

std::vector<std::byte> Comm::allgatherv_bytes(std::vector<std::byte> input,
                                              std::size_t element_size) {
  const double cost = netsim::allgather_time(
      topology(), std::max<std::uint64_t>(input.size(), element_size));
  double exit_time = 0.0;
  auto result = run_collective(
      "allgatherv", std::move(input),
      [](const std::vector<std::vector<std::byte>>& inputs) {
        std::size_t total = 0;
        for (const auto& in : inputs) {
          total += in.size();
        }
        std::vector<std::byte> out;
        out.reserve(total);
        for (const auto& in : inputs) {
          out.insert(out.end(), in.begin(), in.end());
        }
        return out;
      },
      cost, &exit_time);
  finish_collective(exit_time, "allgatherv",
                    static_cast<double>(result.size()));
  return result;
}

std::vector<std::byte> Comm::gatherv_bytes(std::vector<std::byte> input,
                                           int root,
                                           std::size_t element_size) {
  HETERO_REQUIRE(root >= 0 && root < size(), "gatherv: root out of range");
  const double cost = netsim::gather_time(
      topology(), std::max<std::uint64_t>(input.size(), element_size));
  double exit_time = 0.0;
  auto result = run_collective_personalized(
      "gatherv", std::move(input),
      [root, p = size()](const std::vector<std::vector<std::byte>>& inputs) {
        std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
        std::size_t total = 0;
        for (const auto& in : inputs) {
          total += in.size();
        }
        auto& slot = out[static_cast<std::size_t>(root)];
        slot.reserve(total);
        for (const auto& in : inputs) {
          slot.insert(slot.end(), in.begin(), in.end());
        }
        return out;
      },
      cost, &exit_time);
  finish_collective(exit_time, "gatherv",
                    static_cast<double>(result.size()));
  return result;
}

std::vector<std::byte> Comm::scatterv_bytes(
    const std::vector<std::vector<std::byte>>& blocks, int root) {
  HETERO_REQUIRE(root >= 0 && root < size(), "scatterv: root out of range");
  // Flatten the root's blocks with framing; everyone else sends nothing.
  std::vector<std::byte> flat;
  std::uint64_t max_block = 1;
  if (rank_ == root) {
    for (const auto& b : blocks) {
      std::uint64_t len = b.size();
      const auto* lp = reinterpret_cast<const std::byte*>(&len);
      flat.insert(flat.end(), lp, lp + sizeof(len));
      flat.insert(flat.end(), b.begin(), b.end());
      max_block = std::max(max_block, len);
    }
  }
  // Scatter cost mirrors the gather pattern (root serializes the sends).
  const double cost =
      rank() == root ? netsim::gather_time(topology(), max_block) : 0.0;
  const int p = size();
  double exit_time = 0.0;
  auto mine = run_collective_personalized(
      "scatterv", std::move(flat),
      [root, p](const std::vector<std::vector<std::byte>>& inputs) {
        const auto& in = inputs[static_cast<std::size_t>(root)];
        std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
        std::size_t off = 0;
        for (int dest = 0; dest < p; ++dest) {
          std::uint64_t len = 0;
          HETERO_CHECK(off + sizeof(len) <= in.size());
          std::memcpy(&len, in.data() + off, sizeof(len));
          off += sizeof(len);
          HETERO_CHECK(off + len <= in.size());
          out[static_cast<std::size_t>(dest)].assign(in.data() + off,
                                                     in.data() + off + len);
          off += len;
        }
        return out;
      },
      cost, &exit_time);
  finish_collective(exit_time, "scatterv",
                    static_cast<double>(mine.size()));
  return mine;
}

std::vector<std::vector<std::byte>> Comm::alltoallv_bytes(
    const std::vector<std::vector<std::byte>>& blocks) {
  // Serialize: [u64 count per destination] then concatenated payloads. The
  // combine reshuffles so each rank extracts the blocks addressed to it.
  const int p = size();
  std::vector<std::byte> flat;
  std::uint64_t header[1];
  std::uint64_t avg_bytes = 0;
  for (const auto& b : blocks) {
    avg_bytes += b.size();
  }
  avg_bytes = std::max<std::uint64_t>(
      1, avg_bytes / static_cast<std::uint64_t>(p));
  for (const auto& b : blocks) {
    header[0] = b.size();
    const auto* hp = reinterpret_cast<const std::byte*>(header);
    flat.insert(flat.end(), hp, hp + sizeof(header));
    flat.insert(flat.end(), b.begin(), b.end());
  }
  const double cost = netsim::alltoall_time(topology(), avg_bytes);
  double exit_time = 0.0;
  auto mine = run_collective_personalized(
      "alltoallv", std::move(flat),
      [p](const std::vector<std::vector<std::byte>>& inputs) {
        // For every destination, extract from every source the block
        // addressed to it, concatenated with the same framing.
        std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
        for (int src = 0; src < p; ++src) {
          const auto& in = inputs[static_cast<std::size_t>(src)];
          std::size_t off = 0;
          for (int dest = 0; dest < p; ++dest) {
            std::uint64_t len = 0;
            HETERO_CHECK(off + sizeof(len) <= in.size());
            std::memcpy(&len, in.data() + off, sizeof(len));
            off += sizeof(len);
            HETERO_CHECK(off + len <= in.size());
            auto& slot = out[static_cast<std::size_t>(dest)];
            const auto* fp = reinterpret_cast<const std::byte*>(&len);
            slot.insert(slot.end(), fp, fp + sizeof(len));
            slot.insert(slot.end(), in.data() + off, in.data() + off + len);
            off += len;
          }
        }
        return out;
      },
      cost, &exit_time);
  finish_collective(exit_time, "alltoallv",
                    static_cast<double>(mine.size()));

  // Deframe into per-source blocks.
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  std::size_t off = 0;
  for (int src = 0; src < p; ++src) {
    std::uint64_t len = 0;
    HETERO_CHECK(off + sizeof(len) <= mine.size());
    std::memcpy(&len, mine.data() + off, sizeof(len));
    off += sizeof(len);
    out[static_cast<std::size_t>(src)].assign(mine.data() + off,
                                              mine.data() + off + len);
    off += len;
  }
  return out;
}

}  // namespace hetero::simmpi
