#pragma once

/// \file comm.hpp
/// Rank-local communicator handle: the API application code programs
/// against. It offers exactly the MPI the paper's applications call, on the
/// world communicator: buffered point-to-point send/recv plus the
/// synchronizing collectives barrier, allreduce, allgatherv and alltoallv,
/// with typed wrappers for trivially copyable element types.

#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "simmpi/runtime.hpp"

namespace hetero::simmpi {

/// Reduction operators supported by allreduce.
enum class ReduceOp { kSum, kMin, kMax };

class Comm {
 public:
  Comm(Runtime& runtime, int rank) : runtime_(&runtime), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return runtime_->size(); }
  const netsim::Topology& topology() const { return runtime_->topology(); }

  /// Virtual clock of this rank; applications advance it for compute work.
  SimClock& clock() {
    return runtime_->clocks_[static_cast<std::size_t>(rank_)];
  }
  double now() const {
    return runtime_->clocks_[static_cast<std::size_t>(rank_)].time();
  }

  /// Records `seconds` of modeled local computation. When the runtime has
  /// a compute-scale hook (per-rank speed skew), the charge is multiplied
  /// by this rank's factor at the current virtual time — slow cores and
  /// noisy-neighbor windows stretch exactly the compute, never the
  /// numerics or the communication model.
  void compute(double seconds) {
    if (runtime_->compute_scale_) {
      seconds *= runtime_->compute_scale_(rank_, now());
    }
    clock().advance(seconds);
  }

  const CommStats& stats() const {
    return runtime_->stats_[static_cast<std::size_t>(rank_)];
  }

  // ---- point-to-point -----------------------------------------------------

  /// Buffered send; returns once the payload is handed to the runtime. The
  /// sender clock advances by the modeled injection overhead.
  template <class T>
  void send(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(as_bytes_copy(data), dest, tag);
  }
  template <class T>
  void send(const std::vector<T>& data, int dest, int tag) {
    send(std::span<const T>(data), dest, tag);
  }

  /// Blocking receive of a message from (source, tag); returns the payload
  /// reinterpreted as T. The receiver clock advances to the modeled arrival.
  template <class T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(source, tag);
    HETERO_REQUIRE(raw.size() % sizeof(T) == 0,
                   "recv: payload size is not a multiple of element size");
    return from_bytes<T>(raw);
  }

  /// Blocking receive into caller-provided storage: avoids the per-message
  /// typed-vector allocation of recv() for hot exchange loops that keep a
  /// persistent buffer. Returns the element count received; `out` must be
  /// at least that large.
  template <class T>
  std::size_t recv_into(std::span<T> out, int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(source, tag);
    HETERO_REQUIRE(raw.size() % sizeof(T) == 0,
                   "recv_into: payload size is not a multiple of element "
                   "size");
    const std::size_t n = raw.size() / sizeof(T);
    HETERO_REQUIRE(n <= out.size(), "recv_into: buffer too small");
    if (n != 0) {
      std::memcpy(out.data(), raw.data(), raw.size());
    }
    return n;
  }

  // ---- collectives (synchronizing) ----------------------------------------

  void barrier();

  /// Element-wise allreduce; every rank passes equally sized input.
  std::vector<double> allreduce(std::span<const double> data, ReduceOp op);
  std::vector<std::int64_t> allreduce(std::span<const std::int64_t> data,
                                      ReduceOp op);
  double allreduce(double value, ReduceOp op);
  std::int64_t allreduce(std::int64_t value, ReduceOp op);

  /// Gather equally typed (possibly differently sized) blocks; every rank
  /// receives the concatenation ordered by rank.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    return from_bytes<T>(allgatherv_bytes(as_bytes_copy(data), sizeof(T)));
  }
  template <class T>
  std::vector<T> allgatherv(const std::vector<T>& data) {
    return allgatherv(std::span<const T>(data));
  }

  /// Personalized all-to-all: `blocks[d]` goes to rank d; returns the blocks
  /// received, indexed by source rank.
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& blocks) {
    static_assert(std::is_trivially_copyable_v<T>);
    HETERO_REQUIRE(static_cast<int>(blocks.size()) == size(),
                   "alltoallv: need one block per destination rank");
    Blocks raw(blocks.size());
    for (std::size_t d = 0; d < blocks.size(); ++d) {
      raw[d] = as_bytes_copy(std::span<const T>(blocks[d]));
    }
    const Blocks got = alltoallv_bytes(std::move(raw));
    std::vector<std::vector<T>> out(got.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      out[s] = from_bytes<T>(got[s]);
    }
    return out;
  }

 private:
  template <class T>
  static std::vector<std::byte> as_bytes_copy(std::span<const T> data) {
    std::vector<std::byte> out(data.size_bytes());
    if (!out.empty()) {
      std::memcpy(out.data(), data.data(), data.size_bytes());
    }
    return out;
  }

  /// `raw` reinterpreted as T; a trailing partial element is dropped.
  template <class T>
  static std::vector<T> from_bytes(const std::vector<std::byte>& raw) {
    std::vector<T> out(raw.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), raw.data(), out.size() * sizeof(T));
    }
    return out;
  }

  void send_bytes(std::vector<std::byte> payload, int dest, int tag);
  std::vector<std::byte> recv_bytes(int source, int tag);
  std::vector<std::byte> allreduce_bytes(std::vector<std::byte> input,
                                         ReduceOp op, bool is_double);
  std::vector<std::byte> allgatherv_bytes(std::vector<std::byte> input,
                                          std::size_t element_size);
  Blocks alltoallv_bytes(Blocks blocks);

  /// The world rendezvous (see Runtime::collective) entered by this rank.
  Blocks run_collective(const char* name, Blocks input,
                        const Runtime::CombineFn& combine, double cost,
                        double* exit_time) {
    return runtime_->collective(name, rank_, std::move(input), combine, cost,
                                now(), exit_time);
  }

  /// Advances the clock to the collective exit time, updates stats, and
  /// emits a `name` trace span covering this rank's wait (if tracing).
  void finish_collective(double exit_time, const char* name,
                         double bytes = 0.0);

  Runtime* runtime_;
  int rank_;
};

}  // namespace hetero::simmpi
