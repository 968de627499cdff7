#include "la/system_builder.hpp"

#include <algorithm>

#include "la/kernels.hpp"
#include "support/error.hpp"

namespace hetero::la {

DistSystemBuilder::DistSystemBuilder(simmpi::Comm& comm,
                                     std::vector<GlobalId> touched)
    : touched_(std::move(touched)) {
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  directory_ = GidDirectory::build(comm, touched_);
  touched_owner_ = directory_->lookup(comm, touched_);
  touched_index_.reserve(touched_.size());
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    touched_index_.emplace(touched_[t], static_cast<int>(t));
  }
}

void DistSystemBuilder::begin_assembly() {
  mat_values_.clear();
  rhs_values_.clear();
  if (!frozen_) {
    mat_sequence_.clear();
    rhs_sequence_.clear();
    return;
  }
  // A refill adds onto zeros: kept contributions in add order (at add time
  // or at finalize), then the received blocks.
  fast_round_ = kernel_mode() == KernelMode::kFast;
  mat_pos_ = 0;
  rhs_pos_ = 0;
  auto values = matrix_->local_mut().values_mut();
  std::fill(values.begin(), values.end(), 0.0);
  rhs_->set_all(0.0);
}

void DistSystemBuilder::add_matrix(GlobalId row, GlobalId col, double value) {
  if (!frozen_) {
    mat_sequence_.push_back({row, col});
    mat_values_.push_back(value);
    return;
  }
  const std::size_t i = mat_pos_++;
  HETERO_REQUIRE(i < mat_sequence_.size(),
                 "refill produced a different number of matrix entries");
  HETERO_REQUIRE(mat_sequence_[i].row == row && mat_sequence_[i].col == col,
                 "refill changed the matrix sparsity sequence");
  if (fast_round_) {
    mat_plan_.add(matrix_values(), i, value);
  } else {
    mat_values_.push_back(value);
  }
}

void DistSystemBuilder::add_rhs(GlobalId row, double value) {
  if (!frozen_) {
    rhs_sequence_.push_back(row);
    rhs_values_.push_back(value);
    return;
  }
  const std::size_t i = rhs_pos_++;
  HETERO_REQUIRE(i < rhs_sequence_.size(),
                 "refill produced a different number of rhs entries");
  HETERO_REQUIRE(rhs_sequence_[i] == row, "refill changed the rhs sequence");
  if (fast_round_) {
    rhs_plan_.add(rhs_->values().data(), i, value);
  } else {
    rhs_values_.push_back(value);
  }
}

void DistSystemBuilder::add_dense_block(std::span<const GlobalId> rows,
                                        std::span<const GlobalId> cols,
                                        std::span<const double> block) {
  HETERO_REQUIRE(block.size() == rows.size() * cols.size(),
                 "add_dense_block: block shape mismatch");
  std::size_t k = 0;
  for (const GlobalId row : rows) {
    for (const GlobalId col : cols) {
      add_matrix(row, col, block[k++]);
    }
  }
}

void DistSystemBuilder::add_rhs_block(std::span<const GlobalId> rows,
                                      std::span<const double> values) {
  HETERO_REQUIRE(values.size() == rows.size(),
                 "add_rhs_block: size mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    add_rhs(rows[i], values[i]);
  }
}

int DistSystemBuilder::index_of(GlobalId gid, Memo& memo,
                                std::vector<GlobalId>* extras) {
  auto& [memo_gid, index] =
      memo[(static_cast<std::uint64_t>(gid) * 0x9e3779b97f4a7c15ull) >> 56];
  if (index < 0 || memo_gid != gid) {
    auto it = touched_index_.find(gid);
    if (it == touched_index_.end()) {
      HETERO_REQUIRE(extras != nullptr,
                     "contribution to a row this rank never declared as "
                     "touched");
      const int next = static_cast<int>(touched_.size() + extras->size());
      it = touched_index_.emplace(gid, next).first;
      extras->push_back(gid);
    }
    memo_gid = gid;
    index = it->second;
  }
  return index;
}

void DistSystemBuilder::finalize(simmpi::Comm& comm) {
  if (!frozen_) {
    first_finalize(comm);
    return;
  }
  HETERO_REQUIRE(mat_pos_ == mat_sequence_.size(),
                 "refill produced a different number of matrix entries");
  HETERO_REQUIRE(rhs_pos_ == rhs_sequence_.size(),
                 "refill produced a different number of rhs entries");
  if (!fast_round_) {
    for (std::size_t i = 0; i < mat_values_.size(); ++i) {
      mat_plan_.add(matrix_values(), i, mat_values_[i]);
    }
    for (std::size_t i = 0; i < rhs_values_.size(); ++i) {
      rhs_plan_.add(rhs_->values().data(), i, rhs_values_[i]);
    }
  }
  fast_round_ = false;
  mat_plan_.ship(comm, matrix_values());
  rhs_plan_.ship(comm, rhs_->values().data());
}

void DistSystemBuilder::Plan::ship(simmpi::Comm& comm, double* target) const {
  std::vector<std::vector<double>> blocks(off.size() - 1);
  for (std::size_t r = 0; r < blocks.size(); ++r) {
    blocks[r].assign(send.begin() + off[r], send.begin() + off[r + 1]);
  }
  std::size_t j = 0;
  for (const auto& block : comm.alltoallv(blocks)) {
    for (const double v : block) {
      target[recv[j++]] += v;
    }
  }
  HETERO_CHECK(j == recv.size());
}

void DistSystemBuilder::first_finalize(simmpi::Comm& comm) {
  const int me = comm.rank();
  Memo memo;
  memo.fill({0, -1});
  // Routes contribution take(i), i < count, by row owner: a routed add
  // gets the next position of its owner's send block, a kept one dest 0
  // until its slot is known. Returns the blocks to ship.
  const auto route = [&](std::size_t count, auto take, Plan& plan) {
    std::vector<std::vector<decltype(take(0))>> out(
        static_cast<std::size_t>(comm.size()));
    plan.dest.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto c = take(i);
      const int owner = touched_owner_[static_cast<std::size_t>(
          index_of(c.row, memo, nullptr))];
      plan.dest[i] = owner;
      if (owner != me) {
        out[static_cast<std::size_t>(owner)].push_back(c);
      }
    }
    plan.off.assign(out.size() + 1, 0);
    for (std::size_t r = 0; r < out.size(); ++r) {
      plan.off[r + 1] = plan.off[r] + static_cast<std::int32_t>(out[r].size());
    }
    plan.send.assign(static_cast<std::size_t>(plan.off.back()), 0.0);
    std::vector<std::int32_t> next(plan.off.begin(), plan.off.end() - 1);
    for (std::int32_t& d : plan.dest) {
      d = d == me ? 0 : ~next[static_cast<std::size_t>(d)]++;
    }
    return out;
  };
  const auto mat_in = comm.alltoallv(route(
      mat_values_.size(),
      [&](std::size_t i) {
        return GlobalTriplet{mat_sequence_[i].row, mat_sequence_[i].col,
                             mat_values_[i]};
      },
      mat_plan_));
  const auto rhs_in = comm.alltoallv(route(
      rhs_values_.size(),
      [&](std::size_t i) {
        return GlobalPair{rhs_sequence_[i], rhs_values_[i]};
      },
      rhs_plan_));

  // Every contribution to an owned row, in the order each round adds them
  // up: kept ones in add order, then each source rank's block, as
  // index_of() indices.
  std::vector<GlobalId> extras;
  std::vector<std::int32_t> rows, cols, rhs_rows;
  std::size_t mat_count =
      mat_values_.size() - static_cast<std::size_t>(mat_plan_.off.back());
  for (const auto& block : mat_in) {
    mat_count += block.size();
  }
  rows.reserve(mat_count);
  cols.reserve(mat_count);
  const auto take = [&](const auto& c) {
    rows.push_back(index_of(c.row, memo, nullptr));
    cols.push_back(index_of(c.col, memo, &extras));
  };
  for (std::size_t i = 0; i < mat_sequence_.size(); ++i) {
    if (mat_plan_.dest[i] >= 0) {
      take(mat_sequence_[i]);
    }
  }
  for (const auto& block : mat_in) {
    std::for_each(block.begin(), block.end(), take);
  }
  for (std::size_t i = 0; i < rhs_sequence_.size(); ++i) {
    if (rhs_plan_.dest[i] >= 0) {
      rhs_rows.push_back(index_of(rhs_sequence_[i], memo, nullptr));
    }
  }
  for (const auto& block : rhs_in) {
    for (const GlobalPair& c : block) {
      rhs_rows.push_back(index_of(c.row, memo, nullptr));
    }
  }

  map_ = IndexMap::build(comm, *directory_, touched_, extras);
  halo_ = std::make_unique<HaloExchange>(comm, *map_);

  // Indices become local ids; every row is owned.
  std::vector<std::int32_t> local(touched_.size() + extras.size());
  for (std::size_t t = 0; t < local.size(); ++t) {
    local[t] = map_->local(t < touched_.size() ? touched_[t]
                                               : extras[t - touched_.size()]);
  }
  for (auto* ids : {&rows, &rhs_rows}) {
    for (std::int32_t& r : *ids) {
      r = local[static_cast<std::size_t>(r)];
      HETERO_CHECK(map_->is_owned_local(r));
    }
  }
  for (std::int32_t& c : cols) {
    c = local[static_cast<std::size_t>(c)];
  }

  // Kept adds take their slots in add order, then the received values
  // theirs; the first round's values add up in that order too.
  const auto freeze = [](Plan& plan, std::span<const std::int32_t> slots,
                         std::span<const double> values, const auto& in,
                         double* target) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (plan.dest[i] >= 0) {
        plan.dest[i] = slots[k++];
        target[plan.dest[i]] += values[i];
      }
    }
    plan.recv.assign(slots.begin() + static_cast<std::ptrdiff_t>(k),
                     slots.end());
    for (const auto& block : in) {
      for (const auto& c : block) {
        target[slots[k++]] += c.value;
      }
    }
  };
  std::vector<std::int32_t> slots;
  matrix_.emplace(*map_, *halo_,
                  CsrMatrix::from_pattern(map_->owned_count(),
                                          map_->local_count(), rows, cols,
                                          slots));
  rhs_.emplace(*map_);
  freeze(mat_plan_, slots, mat_values_, mat_in, matrix_values());
  freeze(rhs_plan_, rhs_rows, rhs_values_, rhs_in, rhs_->values().data());
  mat_values_ = {};
  rhs_values_ = {};
  frozen_ = true;
}

std::size_t DistSystemBuilder::plan_bytes() const {
  std::size_t words = 0;
  for (const Plan* plan : {&mat_plan_, &rhs_plan_}) {
    words += plan->dest.capacity() + plan->recv.capacity() +
             plan->off.capacity();
  }
  return words * sizeof(std::int32_t) +
         mat_sequence_.capacity() * sizeof(RowCol) +
         rhs_sequence_.capacity() * sizeof(GlobalId);
}

const IndexMap& DistSystemBuilder::map() const {
  HETERO_REQUIRE(frozen_, "map() requires a finalized system");
  return *map_;
}

const HaloExchange& DistSystemBuilder::halo() const {
  HETERO_REQUIRE(frozen_, "halo() requires a finalized system");
  return *halo_;
}

DistCsrMatrix& DistSystemBuilder::matrix() {
  HETERO_REQUIRE(frozen_, "matrix() requires a finalized system");
  return *matrix_;
}

const DistCsrMatrix& DistSystemBuilder::matrix() const {
  HETERO_REQUIRE(frozen_, "matrix() requires a finalized system");
  return *matrix_;
}

DistVector& DistSystemBuilder::rhs() {
  HETERO_REQUIRE(frozen_, "rhs() requires a finalized system");
  return *rhs_;
}

}  // namespace hetero::la
