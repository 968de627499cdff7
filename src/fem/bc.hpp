#pragma once

/// \file bc.hpp
/// Dirichlet boundary conditions with symmetric elimination: constrained
/// rows become identity, and constrained *columns* are folded into the
/// right-hand side so symmetric operators stay symmetric (CG-compatible).
/// Constraint flags/values of ghost columns are fetched from their owners
/// through the halo — one extra exchange per application.
///
/// Time-dependent problems rebuild the same constraint set every step;
/// DirichletPlan amortizes that by freezing the constrained dof set (and
/// its flags exchange) at construction and refreshing only the values.

#include <cstdint>
#include <functional>
#include <vector>

#include "fem/fe_space.hpp"
#include "la/dist_matrix.hpp"
#include "la/system_builder.hpp"

namespace hetero::fem {

/// Geometric predicate selecting constrained dofs, and the boundary value.
using BoundaryPredicate = std::function<bool(const mesh::Vec3&)>;
using BoundaryValueFn = std::function<double(const mesh::Vec3&)>;

/// Per-local-dof constraint data aligned with an IndexMap.
struct DirichletData {
  la::DistVector flags;   // 1.0 constrained, 0.0 free (ghosts refreshed)
  la::DistVector values;  // boundary value where constrained

  DirichletData(const la::IndexMap& map)
      : flags(map), values(map) {}
};

/// Builds constraint data for the scalar `space`: every owned dof whose
/// coordinate satisfies `on_boundary` is constrained to `g(coord)`.
/// Collective (refreshes ghosts).
DirichletData make_dirichlet(simmpi::Comm& comm, const FeSpace& space,
                             const la::IndexMap& map,
                             const la::HaloExchange& halo,
                             const BoundaryPredicate& on_boundary,
                             const BoundaryValueFn& g);

/// Applies symmetric elimination to the assembled system in place and sets
/// the constrained entries of `x` (initial guess) to the boundary values.
void apply_dirichlet(la::DistCsrMatrix& a, la::DistVector& rhs,
                     la::DistVector& x, const DirichletData& bc);

/// Precomputed Dirichlet constraints for time-dependent problems.
///
/// The constrained dof set is purely geometric, so the plan records it —
/// and exchanges the constraint flags — once at construction; update()
/// then refreshes only the boundary *values* each step with a single ghost
/// exchange, where the reference path (make_dirichlet) allocates two fresh
/// DistVectors, re-evaluates the predicate over every dof and exchanges
/// both vectors. apply() additionally caches the CSR slots touched by the
/// symmetric elimination after its first call. The resulting data and
/// eliminated system are bit-identical to make_dirichlet + apply_dirichlet.
class DirichletPlan {
 public:
  /// Scalar variant; collective (exchanges the static flags once).
  DirichletPlan(simmpi::Comm& comm, const FeSpace& space,
                const la::IndexMap& map, const la::HaloExchange& halo,
                const BoundaryPredicate& on_boundary);

  /// Caller-driven variant for composite constraint sets spanning several
  /// spaces over one map (the NS velocity-wall + pressure-pin case):
  /// `collect` is invoked once with an `add(lid, coord, comp)` sink and
  /// must report every owned constrained dof, in a rank-deterministic
  /// order. Collective.
  DirichletPlan(simmpi::Comm& comm, const la::IndexMap& map,
                const la::HaloExchange& halo,
                const std::function<void(const std::function<void(
                    int, const mesh::Vec3&, int)>&)>& collect);

  /// Refreshes the boundary values for the current time; collective.
  void update(simmpi::Comm& comm, const la::HaloExchange& halo,
              const BoundaryValueFn& g);

  /// Block-system value refresh: values come from `g_comp(coord, comp)`.
  void update_block(
      simmpi::Comm& comm, const la::HaloExchange& halo,
      const std::function<double(const mesh::Vec3&, int)>& g_comp);

  /// Flags/values aligned with the IndexMap, as make_dirichlet returns.
  const DirichletData& data() const { return data_; }

  /// Symmetric elimination through cached slot lists (built on the first
  /// call; the matrix sparsity pattern must not change between calls).
  void apply(la::DistCsrMatrix& a, la::DistVector& rhs, la::DistVector& x);

  /// Number of owned constrained dofs on this rank.
  std::size_t constrained_count() const { return entries_.size(); }

 private:
  struct Entry {
    int lid = 0;   // owned local index in the IndexMap
    int comp = 0;  // component (composite sets; 0 for scalar)
    mesh::Vec3 coord;
  };

  void build_apply_plan(const la::CsrMatrix& m);

  std::vector<Entry> entries_;
  DirichletData data_;

  // Cached elimination structure (fast mode; lazily built from the frozen
  // matrix pattern). Identity writes and rhs folds are replayed in the
  // exact row/slot order of apply_dirichlet.
  bool apply_built_ = false;
  std::vector<std::int32_t> ident_rows_;   // constrained owned rows
  std::vector<std::int64_t> ident_slots_;  // slots inside constrained rows
  std::vector<double> ident_vals_;         // 1.0 on diagonal, 0.0 elsewhere
  std::vector<std::int32_t> fold_rows_;    // free rows with constrained cols
  std::vector<std::int64_t> fold_slots_;
  std::vector<std::int32_t> fold_cols_;
};

}  // namespace hetero::fem
