#pragma once

/// \file system_builder.hpp
/// Distributed linear-system assembly with global ids (the Trilinos
/// FECrsMatrix/globalAssemble analogue).
///
/// Ranks add matrix and right-hand-side contributions by *global* id,
/// including rows they do not own (FEM elements on partition boundaries
/// produce those). `finalize()` ships off-process contributions to the row
/// owners, resolves ghost columns, and builds the distributed CSR matrix.
///
/// Time-dependent problems reassemble every step with an identical sparsity
/// pattern, so the first finalize() freezes the structure (index maps, halo
/// plan, CSR pattern, communication routing) and later assemble→finalize
/// rounds replay it shipping *values only* — the same optimization real FEM
/// codes use.
///
/// The freeze runs in linear passes: rows and columns resolve through a
/// small direct-mapped memo (an element block's gids repeat, so a run of
/// equal rows costs one lookup), and the CSR pattern comes from a counting
/// pass over owned rows plus a sort of each row's (column, contribution)
/// keys, which also gives every contribution its value slot. What it keeps is one
/// compact replay plan per contribution kind: the (row, col) sequence
/// (without values, for the exact per-entry check), a 32-bit destination per
/// add — its slot on this rank, or its position in the owner's send block —
/// and a 32-bit slot per received value. Every round, the first included,
/// accumulates each slot in the same order: kept contributions in add
/// order, then each source rank's block.
///
/// Both kernel modes read that plan. A refill zeroes the CSR values and
/// rhs in begin_assembly(), and every add_* call checks the frozen sequence
/// (a violation throws at the offending call). Under
/// la::KernelMode::kReference the round buffers its values and scatters
/// them at finalize(); under kFast each add scatters its value straight to
/// its destination, so a refill performs no buffering and no second pass.
/// Values are bit-identical either way.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "la/dist_matrix.hpp"
#include "la/dist_vector.hpp"
#include "la/halo.hpp"
#include "la/index_map.hpp"

namespace hetero::la {

class DistSystemBuilder {
 public:
  /// Collective: establishes ownership of the dof gids this rank touches.
  DistSystemBuilder(simmpi::Comm& comm, std::vector<GlobalId> touched);

  /// Starts an assembly round; every round, the first included, begins
  /// with it.
  void begin_assembly();

  /// Adds A(row, col) += value. After the structure is frozen, calls must
  /// repeat the first round's (row, col) sequence exactly.
  void add_matrix(GlobalId row, GlobalId col, double value);

  /// Adds b(row) += value. Rows may repeat freely within a round, but the
  /// sequence must repeat across rounds once frozen.
  void add_rhs(GlobalId row, double value);

  /// Adds a dense element block: A(rows[i], cols[j]) += block[i*cols.size()
  /// + j] in row-major order — the exact add_matrix sequence a nested i/j
  /// loop would produce, so element kernels can hand their matrices over
  /// whole.
  void add_dense_block(std::span<const GlobalId> rows,
                       std::span<const GlobalId> cols,
                       std::span<const double> block);

  /// Adds b(rows[i]) += values[i] for each i, in order.
  void add_rhs_block(std::span<const GlobalId> rows,
                     std::span<const double> values);

  /// Collective: ships contributions, builds (first time) or refills the
  /// distributed system.
  void finalize(simmpi::Comm& comm);

  const IndexMap& map() const;
  const HaloExchange& halo() const;
  DistCsrMatrix& matrix();
  const DistCsrMatrix& matrix() const;
  DistVector& rhs();

  /// Bytes the frozen replay plan holds (the sequences, destinations,
  /// receive slots and block offsets; not the send value buffers); 0
  /// before the first finalize(). Exposed for tests.
  std::size_t plan_bytes() const;

 private:
  struct GlobalTriplet {
    GlobalId row = 0;
    GlobalId col = 0;
    double value = 0.0;
  };
  struct GlobalPair {
    GlobalId row = 0;
    double value = 0.0;
  };
  struct RowCol {
    GlobalId row = 0;
    GlobalId col = 0;
  };

  /// The frozen route of one contribution kind. dest[i] >= 0 is the i-th
  /// add's slot on this rank; dest[i] < 0 puts it at send[~dest[i]], inside
  /// the owner r's block [off[r], off[r+1]). recv[j] is the slot of the
  /// j-th received value, blocks in source-rank order.
  struct Plan {
    std::vector<std::int32_t> dest;
    std::vector<std::int32_t> recv;
    std::vector<std::int32_t> off;
    std::vector<double> send;

    void add(double* target, std::size_t i, double value) {
      const std::int32_t d = dest[i];
      if (d >= 0) {
        target[d] += value;
      } else {
        send[static_cast<std::size_t>(~d)] = value;
      }
    }
    /// Collective: ships the send blocks and adds what arrives.
    void ship(simmpi::Comm& comm, double* target) const;
  };

  /// Direct-mapped memo of index_of(): FEM element blocks repeat a few
  /// gids many times over. Empty entries hold index -1.
  using Memo = std::array<std::pair<GlobalId, int>, 256>;

  void first_finalize(simmpi::Comm& comm);
  /// Index of `gid` into touched_, then past its end into `extras`: a
  /// column this rank never touched is appended there (it becomes a
  /// ghost); without `extras` the gid must have been touched.
  int index_of(GlobalId gid, Memo& memo, std::vector<GlobalId>* extras);
  double* matrix_values() { return matrix_->local_mut().values_mut().data(); }

  std::vector<GlobalId> touched_;                    // sorted, unique
  std::vector<int> touched_owner_;                   // owner of touched_[t]
  std::unordered_map<GlobalId, int> touched_index_;  // gid -> index_of()
  std::optional<GidDirectory> directory_;

  // The (row, col) and rhs-row sequences: the first round's as it is
  // added, then the frozen ones every refill must repeat.
  std::vector<RowCol> mat_sequence_;
  std::vector<GlobalId> rhs_sequence_;
  // Values of a buffered round (the first, and reference-mode refills).
  std::vector<double> mat_values_;
  std::vector<double> rhs_values_;

  // Frozen structure.
  bool frozen_ = false;
  std::optional<IndexMap> map_;
  std::unique_ptr<HaloExchange> halo_;
  std::optional<DistCsrMatrix> matrix_;
  std::optional<DistVector> rhs_;

  // Replay plan.
  Plan mat_plan_;
  Plan rhs_plan_;
  bool fast_round_ = false;  // the current round scatters at add time
  std::size_t mat_pos_ = 0;  // adds so far in the current fast round
  std::size_t rhs_pos_ = 0;
};

}  // namespace hetero::la
