#include "fem/bc.hpp"

#include "la/kernels.hpp"
#include "support/error.hpp"

namespace hetero::fem {

DirichletData make_dirichlet(simmpi::Comm& comm, const FeSpace& space,
                             const la::IndexMap& map,
                             const la::HaloExchange& halo,
                             const BoundaryPredicate& on_boundary,
                             const BoundaryValueFn& g) {
  DirichletData bc(map);
  for (int d = 0; d < space.local_dof_count(); ++d) {
    const int l = map.local(space.dof_gid(d));
    if (l == la::kInvalidLocal || !map.is_owned_local(l)) {
      continue;  // owner fills it; we'll see it via the halo
    }
    const mesh::Vec3& x = space.dof_coord(d);
    if (on_boundary(x)) {
      bc.flags[l] = 1.0;
      bc.values[l] = g(x);
    }
  }
  bc.flags.update_ghosts(comm, halo);
  bc.values.update_ghosts(comm, halo);
  return bc;
}

DirichletPlan::DirichletPlan(simmpi::Comm& comm, const FeSpace& space,
                             const la::IndexMap& map,
                             const la::HaloExchange& halo,
                             const BoundaryPredicate& on_boundary)
    : data_(map) {
  // Same dof sweep as make_dirichlet, recorded once.
  for (int d = 0; d < space.local_dof_count(); ++d) {
    const int l = map.local(space.dof_gid(d));
    if (l == la::kInvalidLocal || !map.is_owned_local(l)) {
      continue;
    }
    const mesh::Vec3& x = space.dof_coord(d);
    if (on_boundary(x)) {
      data_.flags[l] = 1.0;
      entries_.push_back(Entry{l, 0, x});
    }
  }
  data_.flags.update_ghosts(comm, halo);
}

DirichletPlan::DirichletPlan(
    simmpi::Comm& comm, const la::IndexMap& map, const la::HaloExchange& halo,
    const std::function<
        void(const std::function<void(int, const mesh::Vec3&, int)>&)>&
        collect)
    : data_(map) {
  collect([this](int lid, const mesh::Vec3& coord, int comp) {
    data_.flags[lid] = 1.0;
    entries_.push_back(Entry{lid, comp, coord});
  });
  data_.flags.update_ghosts(comm, halo);
}

void DirichletPlan::update(simmpi::Comm& comm, const la::HaloExchange& halo,
                           const BoundaryValueFn& g) {
  // Free entries of `values` stay 0 (they are never written), matching the
  // freshly zeroed vectors make_dirichlet allocates.
  for (const Entry& e : entries_) {
    data_.values[e.lid] = g(e.coord);
  }
  data_.values.update_ghosts(comm, halo);
}

void DirichletPlan::update_block(
    simmpi::Comm& comm, const la::HaloExchange& halo,
    const std::function<double(const mesh::Vec3&, int)>& g_comp) {
  for (const Entry& e : entries_) {
    data_.values[e.lid] = g_comp(e.coord, e.comp);
  }
  data_.values.update_ghosts(comm, halo);
}

void DirichletPlan::build_apply_plan(const la::CsrMatrix& m) {
  const auto row_ptr = m.row_ptr();
  const auto col_idx = m.col_idx();
  const int rows = m.rows();
  for (int r = 0; r < rows; ++r) {
    const auto begin =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r)]);
    const auto end =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r) + 1]);
    if (data_.flags[r] != 0.0) {
      ident_rows_.push_back(r);
      for (std::size_t k = begin; k < end; ++k) {
        ident_slots_.push_back(static_cast<std::int64_t>(k));
        ident_vals_.push_back(col_idx[k] == r ? 1.0 : 0.0);
      }
      continue;
    }
    for (std::size_t k = begin; k < end; ++k) {
      if (data_.flags[col_idx[k]] != 0.0) {
        fold_rows_.push_back(r);
        fold_slots_.push_back(static_cast<std::int64_t>(k));
        fold_cols_.push_back(col_idx[k]);
      }
    }
  }
  apply_built_ = true;
}

void DirichletPlan::apply(la::DistCsrMatrix& a, la::DistVector& rhs,
                          la::DistVector& x) {
  if (la::kernel_mode() == la::KernelMode::kReference) {
    apply_dirichlet(a, rhs, x, data_);
    return;
  }
  la::CsrMatrix& m = a.local_mut();
  const int rows = m.rows();
  HETERO_REQUIRE(rhs.owned_count() == rows && x.owned_count() == rows,
                 "apply_dirichlet: vector size mismatch");
  if (!apply_built_) {
    build_apply_plan(m);
  }
  auto values = m.values_mut();
  // Identity writes and rhs/x assignments touch only constrained rows;
  // folds touch only free rows — disjoint targets, and the fold list
  // replays apply_dirichlet's (row ascending, slot ascending) order, so
  // every rhs accumulation chain is unchanged.
  for (std::size_t i = 0; i < ident_slots_.size(); ++i) {
    values[static_cast<std::size_t>(ident_slots_[i])] = ident_vals_[i];
  }
  for (const std::int32_t r : ident_rows_) {
    rhs[r] = data_.values[r];
    x[r] = data_.values[r];
  }
  for (std::size_t i = 0; i < fold_rows_.size(); ++i) {
    const auto slot = static_cast<std::size_t>(fold_slots_[i]);
    rhs[fold_rows_[i]] -= values[slot] * data_.values[fold_cols_[i]];
    values[slot] = 0.0;
  }
}

void apply_dirichlet(la::DistCsrMatrix& a, la::DistVector& rhs,
                     la::DistVector& x, const DirichletData& bc) {
  la::CsrMatrix& m = a.local_mut();
  const auto row_ptr = m.row_ptr();
  const auto col_idx = m.col_idx();
  auto values = m.values_mut();
  const int rows = m.rows();
  HETERO_REQUIRE(rhs.owned_count() == rows && x.owned_count() == rows,
                 "apply_dirichlet: vector size mismatch");
  for (int r = 0; r < rows; ++r) {
    const auto begin = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r)]);
    const auto end =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r) + 1]);
    if (bc.flags[r] != 0.0) {
      // Constrained row -> identity.
      for (std::size_t k = begin; k < end; ++k) {
        values[k] = (col_idx[k] == r) ? 1.0 : 0.0;
      }
      rhs[r] = bc.values[r];
      x[r] = bc.values[r];
      continue;
    }
    // Free row: fold constrained columns into the rhs (ghosts included —
    // their flags/values were refreshed when the data was built).
    for (std::size_t k = begin; k < end; ++k) {
      const int c = col_idx[k];
      if (bc.flags[c] != 0.0) {
        rhs[r] -= values[k] * bc.values[c];
        values[k] = 0.0;
      }
    }
  }
}

}  // namespace hetero::fem
