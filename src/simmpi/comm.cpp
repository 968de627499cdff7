#include "simmpi/comm.hpp"

#include <algorithm>

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

/// `block` as the one block a rank brings to allreduce or allgatherv.
Blocks one_block(std::vector<std::byte> block) {
  Blocks blocks(1);
  blocks.front() = std::move(block);
  return blocks;
}

/// Element-wise reduction of every rank's one block, a flat byte image of
/// T; leaves the result in every rank's entry.
template <class T>
void reduce_blocks(std::vector<Blocks>& all, ReduceOp op) {
  const std::size_t bytes = all.front().front().size();
  for (const auto& in : all) {
    HETERO_REQUIRE(in.front().size() == bytes,
                   "allreduce: ranks passed differently sized inputs");
  }
  const std::size_t n = bytes / sizeof(T);
  std::vector<T> acc(n);
  std::memcpy(acc.data(), all.front().front().data(), bytes);
  for (std::size_t r = 1; r < all.size(); ++r) {
    const std::byte* other = all[r].front().data();
    for (std::size_t i = 0; i < n; ++i) {
      T x;
      std::memcpy(&x, other + i * sizeof(T), sizeof(T));
      switch (op) {
        case ReduceOp::kSum: acc[i] += x; break;
        case ReduceOp::kMin: acc[i] = std::min(acc[i], x); break;
        case ReduceOp::kMax: acc[i] = std::max(acc[i], x); break;
      }
    }
  }
  for (auto& in : all) {
    std::memcpy(in.front().data(), acc.data(), bytes);
  }
}

}  // namespace

void Comm::send_bytes(std::vector<std::byte> payload, int dest, int tag) {
  HETERO_REQUIRE(dest >= 0 && dest < size(), "send: destination out of range");
  auto& stats = runtime_->stats_[static_cast<std::size_t>(rank_)];
  ++stats.messages_sent;
  stats.bytes_sent += payload.size();
  if (!stats.bytes_by_dest.empty()) {
    stats.bytes_by_dest[static_cast<std::size_t>(dest)] += payload.size();
  }

  // Sender-side overhead: push the bytes into the NIC/shared segment. The
  // wire/latency part is charged to the receiver at matching time.
  const netsim::Topology& topo = runtime_->topology();
  const netsim::Fabric& fabric = topo.same_node(rank_, dest)
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

  runtime_->post_send(rank_, dest, tag, std::move(payload), now());
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag) {
  auto env = runtime_->blocking_recv(rank_, source, tag);
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

std::vector<double> Comm::allreduce(std::span<const double> data,
                                    ReduceOp op) {
  return from_bytes<double>(
      allreduce_bytes(as_bytes_copy(data), op, /*is_double=*/true));
}

std::vector<std::int64_t> Comm::allreduce(std::span<const std::int64_t> data,
                                          ReduceOp op) {
  return from_bytes<std::int64_t>(
      allreduce_bytes(as_bytes_copy(data), op, /*is_double=*/false));
}

double Comm::allreduce(double value, ReduceOp op) {
  return allreduce(std::span<const double>(&value, 1), op).front();
}

std::int64_t Comm::allreduce(std::int64_t value, ReduceOp op) {
  return allreduce(std::span<const std::int64_t>(&value, 1), op).front();
}

std::vector<std::byte> Comm::allreduce_bytes(std::vector<std::byte> input,
                                             ReduceOp op, bool is_double) {
  const double bytes = static_cast<double>(input.size());
  const double cost = netsim::allreduce_time(topology(), input.size());
  double exit_time = 0.0;
  Blocks result = run_collective(
      "allreduce", one_block(std::move(input)),
      [op, is_double](std::vector<Blocks>& all) {
        is_double ? reduce_blocks<double>(all, op)
                  : reduce_blocks<std::int64_t>(all, op);
      },
      cost, &exit_time);
  finish_collective(exit_time, "allreduce", bytes);
  return std::move(result.front());
}

std::vector<std::byte> Comm::allgatherv_bytes(std::vector<std::byte> input,
                                              std::size_t element_size) {
  const double cost = netsim::allgather_time(
      topology(), std::max<std::uint64_t>(input.size(), element_size));
  double exit_time = 0.0;
  Blocks result = run_collective(
      "allgatherv", one_block(std::move(input)),
      [](std::vector<Blocks>& all) {
        std::size_t total = 0;
        for (const auto& in : all) {
          total += in.front().size();
        }
        std::vector<std::byte> out;
        out.reserve(total);
        for (const auto& in : all) {
          out.insert(out.end(), in.front().begin(), in.front().end());
        }
        for (auto& in : all) {
          in.front() = out;
        }
      },
      cost, &exit_time);
  finish_collective(exit_time, "allgatherv",
                    static_cast<double>(result.front().size()));
  return std::move(result.front());
}

Blocks Comm::alltoallv_bytes(Blocks blocks) {
  std::uint64_t bytes = 0;
  for (const auto& b : blocks) {
    bytes += b.size();
  }
  const double cost = netsim::alltoall_time(
      topology(),
      std::max<std::uint64_t>(1, bytes / static_cast<std::uint64_t>(size())));
  double exit_time = 0.0;
  // Entry [s][d] is the block rank s addresses to rank d; transposing moves
  // every block into its destination's entry, indexed by source.
  Blocks received = run_collective(
      "alltoallv", std::move(blocks),
      [](std::vector<Blocks>& all) {
        for (std::size_t s = 0; s < all.size(); ++s) {
          for (std::size_t d = s + 1; d < all.size(); ++d) {
            std::swap(all[s][d], all[d][s]);
          }
        }
      },
      cost, &exit_time);
  bytes = 0;
  for (const auto& b : received) {
    bytes += b.size();
  }
  finish_collective(exit_time, "alltoallv", static_cast<double>(bytes));
  return received;
}

}  // namespace hetero::simmpi
