#pragma once

/// \file assembler.hpp
/// Per-element dense kernels (mass, stiffness, convection, load) and their
/// evaluation machinery — the paper's assembly phase (step ii). Applications
/// combine these into global distributed systems through
/// la::DistSystemBuilder.
///
/// Under la::KernelMode::kFast the kernels read tet geometries from a
/// per-kernel cache filled once (the mesh never moves) instead of
/// recomputing the Jacobian factorization on every call, and
/// mass_stiffness_load() evaluates all three RD element quantities in a
/// single quadrature sweep. Per-entry accumulation order is unchanged, so
/// element matrices are bit-identical to the reference kernels.

#include <functional>
#include <span>
#include <vector>

#include "fem/fe_space.hpp"
#include "fem/reference.hpp"

namespace hetero::fem {

/// Affine geometry of one tetrahedron.
struct TetGeometry {
  /// Columns of J^{-T}: maps reference gradients to physical gradients.
  mesh::Vec3 jinv_t[3];
  /// |det J| = 6 * volume.
  double det = 0.0;
  mesh::Vec3 origin;   // vertex 0
  mesh::Vec3 edges[3]; // vertex i+1 - vertex 0

  static TetGeometry compute(const mesh::TetMesh& mesh, std::size_t t);

  mesh::Vec3 physical_grad(const mesh::Vec3& ref_grad) const {
    return jinv_t[0] * ref_grad.x + jinv_t[1] * ref_grad.y +
           jinv_t[2] * ref_grad.z;
  }
  mesh::Vec3 map_point(const mesh::Vec3& xi) const {
    return origin + edges[0] * xi.x + edges[1] * xi.y + edges[2] * xi.z;
  }
};

/// Scalar field sampled in space (and optionally time by the caller).
using SpatialFn = std::function<double(const mesh::Vec3&)>;
using VectorFn = std::function<mesh::Vec3(const mesh::Vec3&)>;

/// Per-mesh cache of affine tet geometries. Fast mode tabulates every tet
/// once on first use (the mesh is static for the life of a kernel);
/// reference mode recomputes per call exactly like the original kernels.
/// Either way the values come from the same TetGeometry::compute, so the
/// two modes are bit-identical.
class GeometryCache {
 public:
  explicit GeometryCache(const mesh::TetMesh& mesh) : mesh_(&mesh) {}

  const TetGeometry& get(std::size_t t) const;

 private:
  const mesh::TetMesh* mesh_;
  mutable std::vector<TetGeometry> cache_;  // fast mode: all tets
  mutable bool built_ = false;
  mutable TetGeometry scratch_;  // reference mode: per-call recompute
};

/// Dense element kernels over one FeSpace; all outputs are row-major
/// n×n (matrices) or length-n (vectors) with n = space.dofs_per_tet().
class ElementKernel {
 public:
  /// `quad_degree` must integrate the strongest product exactly; P2 mass
  /// needs 4, P1 work needs 2.
  ElementKernel(const FeSpace& space, int quad_degree);

  const FeSpace& space() const { return *space_; }
  int n() const { return table_->dofs; }
  std::size_t quad_count() const { return table_->points.size(); }

  /// out(i,j) += sum_q w |J| phi_i phi_j  (set semantics: out overwritten).
  void mass(std::size_t t, std::span<double> out) const;

  /// Row-sum lumped mass: out(i) = sum_j M(i,j) = int phi_i. Diagonal
  /// approximation used for cheap L2 projections; conserves total volume.
  void lumped_mass(std::size_t t, std::span<double> out) const;

  /// out(i,j) = sum_q w |J| grad phi_i . grad phi_j.
  void stiffness(std::size_t t, std::span<double> out) const;

  /// out(i,j) = sum_q w |J| (beta(x_q) . grad phi_j) phi_i.
  void convection(std::size_t t, std::span<const mesh::Vec3> beta_at_quad,
                  std::span<double> out) const;

  /// out(i) = sum_q w |J| f(x_q) phi_i.
  void load(std::size_t t, const SpatialFn& f, std::span<double> out) const;

  /// Evaluates mass, stiffness and load for tet `t` in a single quadrature
  /// sweep (one geometry fetch, one pass over quadrature points). Entry
  /// accumulation order matches the separate kernels, so the outputs are
  /// bit-identical; reference mode simply calls the three kernels.
  void mass_stiffness_load(std::size_t t, const SpatialFn& f,
                           std::span<double> mout, std::span<double> kout,
                           std::span<double> fout) const;

  /// Physical coordinates of the quadrature points of tet `t`.
  void quad_points(std::size_t t, std::span<mesh::Vec3> out) const;

  /// Values at quadrature points of the FE function whose *space-local* dof
  /// values are `dof_values` (indexed like FeSpace dofs).
  void eval_at_quad(std::size_t t, std::span<const double> dof_values,
                    std::span<double> out) const;

  /// Gradients at quadrature points of the same FE function.
  void eval_grad_at_quad(std::size_t t, std::span<const double> dof_values,
                         std::span<mesh::Vec3> out) const;

  const ShapeTable& table() const { return *table_; }

 private:
  const TetGeometry& geometry(std::size_t t) const { return geo_.get(t); }

  const FeSpace* space_;
  const ShapeTable* table_;  // owned by the FeSpace shape-table cache
  GeometryCache geo_;
};

/// Coupling kernels between two spaces on the same mesh (mixed velocity /
/// pressure formulations: Taylor-Hood P2/P1 or equal-order P1/P1).
class MixedElementKernel {
 public:
  /// Both spaces must be built over the same mesh object.
  MixedElementKernel(const FeSpace& row_space, const FeSpace& col_space,
                     int quad_degree);

  int rows() const { return row_table_->dofs; }
  int cols() const { return col_table_->dofs; }

  /// out(i,j) = sum_q w |J| d(phi^row_i)/d(x_axis) psi^col_j — the
  /// divergence/pressure-gradient coupling: with row = velocity and col =
  /// pressure this is B(i,j); its transpose enters the continuity rows.
  void grad_row_times_col(std::size_t t, int axis,
                          std::span<double> out) const;

 private:
  const FeSpace* row_;
  const FeSpace* col_;
  const ShapeTable* row_table_;  // owned by the row space's cache
  const ShapeTable* col_table_;
  GeometryCache geo_;
};

}  // namespace hetero::fem
