#include "fem/assembler.hpp"

#include <algorithm>
#include <cmath>

#include "la/kernels.hpp"
#include "support/error.hpp"

namespace hetero::fem {

namespace {

/// FLOP/byte tallies of the element kernels (obs counters
/// fem.kernel.assembly.{flops,bytes}); see docs/kernels.md.
la::KernelWork& fem_work() {
  static la::KernelWork work("fem.kernel.assembly");
  return work;
}

}  // namespace

TetGeometry TetGeometry::compute(const mesh::TetMesh& mesh, std::size_t t) {
  const auto& tet = mesh.tet(t);
  TetGeometry g;
  g.origin = mesh.vertex(tet[0]);
  for (int i = 0; i < 3; ++i) {
    g.edges[i] = mesh.vertex(tet[static_cast<std::size_t>(i) + 1]) - g.origin;
  }
  // J columns are the edge vectors; det J = e0 . (e1 x e2).
  const mesh::Vec3 c12 = g.edges[1].cross(g.edges[2]);
  const double det = g.edges[0].dot(c12);
  HETERO_REQUIRE(det > 0.0, "TetGeometry: inverted or degenerate tet");
  g.det = det;
  // Rows of J^{-1} are cross products / det; columns of J^{-T} equal them.
  const mesh::Vec3 c20 = g.edges[2].cross(g.edges[0]);
  const mesh::Vec3 c01 = g.edges[0].cross(g.edges[1]);
  g.jinv_t[0] = c12 * (1.0 / det);
  g.jinv_t[1] = c20 * (1.0 / det);
  g.jinv_t[2] = c01 * (1.0 / det);
  return g;
}

const TetGeometry& GeometryCache::get(std::size_t t) const {
  if (la::kernel_mode() == la::KernelMode::kFast) {
    if (!built_) {
      const std::size_t count = mesh_->tet_count();
      cache_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        cache_.push_back(TetGeometry::compute(*mesh_, i));
      }
      built_ = true;
    }
    return cache_[t];
  }
  scratch_ = TetGeometry::compute(*mesh_, t);
  return scratch_;
}

ElementKernel::ElementKernel(const FeSpace& space, int quad_degree)
    : space_(&space),
      table_(&space.shape_table(quad_degree)),
      geo_(space.mesh()) {}

void ElementKernel::mass(std::size_t t, std::span<double> out) const {
  const int n = table_->dofs;
  HETERO_REQUIRE(static_cast<int>(out.size()) == n * n,
                 "mass: output span size mismatch");
  const auto& geo = geometry(t);
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t nq = table_->points.size();
  for (std::size_t q = 0; q < nq; ++q) {
    const double w = table_->points[q].weight * geo.det;
    const auto& phi = table_->values[q];
    for (int i = 0; i < n; ++i) {
      const double wi = w * phi[static_cast<std::size_t>(i)];
      for (int j = 0; j < n; ++j) {
        out[static_cast<std::size_t>(i * n + j)] +=
            wi * phi[static_cast<std::size_t>(j)];
      }
    }
  }
  const auto nn = static_cast<double>(n);
  fem_work().add(static_cast<double>(nq) * (1.0 + nn * (1.0 + 2.0 * nn)),
                 8.0 * nn * nn);
}

void ElementKernel::lumped_mass(std::size_t t, std::span<double> out) const {
  const int n = table_->dofs;
  HETERO_REQUIRE(static_cast<int>(out.size()) == n,
                 "lumped_mass: output span size mismatch");
  const auto& geo = geometry(t);
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t nq = table_->points.size();
  for (std::size_t q = 0; q < nq; ++q) {
    const double w = table_->points[q].weight * geo.det;
    for (int i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] +=
          w * table_->values[q][static_cast<std::size_t>(i)];
    }
  }
  fem_work().add(static_cast<double>(nq) * (1.0 + 2.0 * n),
                 8.0 * static_cast<double>(n));
}

void ElementKernel::stiffness(std::size_t t, std::span<double> out) const {
  const int n = table_->dofs;
  HETERO_REQUIRE(static_cast<int>(out.size()) == n * n,
                 "stiffness: output span size mismatch");
  const auto& geo = geometry(t);
  std::fill(out.begin(), out.end(), 0.0);
  std::array<mesh::Vec3, kP2Dofs> grad{};
  const std::size_t nq = table_->points.size();
  for (std::size_t q = 0; q < nq; ++q) {
    const double w = table_->points[q].weight * geo.det;
    for (int i = 0; i < n; ++i) {
      grad[static_cast<std::size_t>(i)] =
          geo.physical_grad(table_->grads[q][static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        out[static_cast<std::size_t>(i * n + j)] +=
            w * grad[static_cast<std::size_t>(i)].dot(
                    grad[static_cast<std::size_t>(j)]);
      }
    }
  }
  const auto nn = static_cast<double>(n);
  fem_work().add(static_cast<double>(nq) * (1.0 + 15.0 * nn + 7.0 * nn * nn),
                 8.0 * nn * nn);
}

void ElementKernel::convection(std::size_t t,
                               std::span<const mesh::Vec3> beta_at_quad,
                               std::span<double> out) const {
  const int n = table_->dofs;
  HETERO_REQUIRE(static_cast<int>(out.size()) == n * n,
                 "convection: output span size mismatch");
  HETERO_REQUIRE(beta_at_quad.size() == table_->points.size(),
                 "convection: one beta per quadrature point required");
  const auto& geo = geometry(t);
  std::fill(out.begin(), out.end(), 0.0);
  std::array<mesh::Vec3, kP2Dofs> grad{};
  const std::size_t nq = table_->points.size();
  for (std::size_t q = 0; q < nq; ++q) {
    const double w = table_->points[q].weight * geo.det;
    const auto& phi = table_->values[q];
    for (int j = 0; j < n; ++j) {
      grad[static_cast<std::size_t>(j)] =
          geo.physical_grad(table_->grads[q][static_cast<std::size_t>(j)]);
    }
    for (int i = 0; i < n; ++i) {
      const double wi = w * phi[static_cast<std::size_t>(i)];
      for (int j = 0; j < n; ++j) {
        out[static_cast<std::size_t>(i * n + j)] +=
            wi * beta_at_quad[q].dot(grad[static_cast<std::size_t>(j)]);
      }
    }
  }
  const auto nn = static_cast<double>(n);
  fem_work().add(static_cast<double>(nq) * (1.0 + 16.0 * nn + 7.0 * nn * nn),
                 8.0 * nn * nn);
}

void ElementKernel::load(std::size_t t, const SpatialFn& f,
                         std::span<double> out) const {
  const int n = table_->dofs;
  HETERO_REQUIRE(static_cast<int>(out.size()) == n,
                 "load: output span size mismatch");
  const auto& geo = geometry(t);
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t nq = table_->points.size();
  for (std::size_t q = 0; q < nq; ++q) {
    const double w = table_->points[q].weight * geo.det;
    const double fq = f(geo.map_point(table_->points[q].xi));
    const auto& phi = table_->values[q];
    for (int i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] +=
          w * fq * phi[static_cast<std::size_t>(i)];
    }
  }
  fem_work().add(static_cast<double>(nq) * (10.0 + 3.0 * n),
                 8.0 * static_cast<double>(n));
}

void ElementKernel::mass_stiffness_load(std::size_t t, const SpatialFn& f,
                                        std::span<double> mout,
                                        std::span<double> kout,
                                        std::span<double> fout) const {
  if (la::kernel_mode() == la::KernelMode::kReference) {
    mass(t, mout);
    stiffness(t, kout);
    load(t, f, fout);
    return;
  }
  const int n = table_->dofs;
  HETERO_REQUIRE(static_cast<int>(mout.size()) == n * n &&
                     static_cast<int>(kout.size()) == n * n &&
                     static_cast<int>(fout.size()) == n,
                 "mass_stiffness_load: output span size mismatch");
  const auto& geo = geometry(t);
  std::fill(mout.begin(), mout.end(), 0.0);
  std::fill(kout.begin(), kout.end(), 0.0);
  std::fill(fout.begin(), fout.end(), 0.0);
  std::array<mesh::Vec3, kP2Dofs> grad{};
  const std::size_t nq = table_->points.size();
  // One sweep over quadrature points; each output entry accumulates its
  // terms in ascending-q order exactly like the separate kernels, so the
  // results are bit-identical.
  for (std::size_t q = 0; q < nq; ++q) {
    const double w = table_->points[q].weight * geo.det;
    const auto& phi = table_->values[q];
    const double fq = f(geo.map_point(table_->points[q].xi));
    for (int i = 0; i < n; ++i) {
      grad[static_cast<std::size_t>(i)] =
          geo.physical_grad(table_->grads[q][static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < n; ++i) {
      const double wi = w * phi[static_cast<std::size_t>(i)];
      for (int j = 0; j < n; ++j) {
        mout[static_cast<std::size_t>(i * n + j)] +=
            wi * phi[static_cast<std::size_t>(j)];
        kout[static_cast<std::size_t>(i * n + j)] +=
            w * grad[static_cast<std::size_t>(i)].dot(
                    grad[static_cast<std::size_t>(j)]);
      }
      fout[static_cast<std::size_t>(i)] +=
          w * fq * phi[static_cast<std::size_t>(i)];
    }
  }
  const auto nn = static_cast<double>(n);
  fem_work().add(
      static_cast<double>(nq) * (11.0 + 19.0 * nn + 9.0 * nn * nn),
      8.0 * (2.0 * nn * nn + nn));
}

void ElementKernel::quad_points(std::size_t t,
                                std::span<mesh::Vec3> out) const {
  HETERO_REQUIRE(out.size() == table_->points.size(),
                 "quad_points: output span size mismatch");
  const auto& geo = geometry(t);
  for (std::size_t q = 0; q < table_->points.size(); ++q) {
    out[q] = geo.map_point(table_->points[q].xi);
  }
}

void ElementKernel::eval_at_quad(std::size_t t,
                                 std::span<const double> dof_values,
                                 std::span<double> out) const {
  HETERO_REQUIRE(out.size() == table_->points.size(),
                 "eval_at_quad: output span size mismatch");
  const auto dofs = space_->tet_dofs(t);
  for (std::size_t q = 0; q < table_->points.size(); ++q) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dofs.size(); ++i) {
      acc += table_->values[q][i] *
             dof_values[static_cast<std::size_t>(dofs[i])];
    }
    out[q] = acc;
  }
}

void ElementKernel::eval_grad_at_quad(std::size_t t,
                                      std::span<const double> dof_values,
                                      std::span<mesh::Vec3> out) const {
  HETERO_REQUIRE(out.size() == table_->points.size(),
                 "eval_grad_at_quad: output span size mismatch");
  const auto& geo = geometry(t);
  const auto dofs = space_->tet_dofs(t);
  for (std::size_t q = 0; q < table_->points.size(); ++q) {
    mesh::Vec3 acc;
    for (std::size_t i = 0; i < dofs.size(); ++i) {
      acc = acc + table_->grads[q][i] *
                      dof_values[static_cast<std::size_t>(dofs[i])];
    }
    out[q] = geo.physical_grad(acc);
  }
}

MixedElementKernel::MixedElementKernel(const FeSpace& row_space,
                                       const FeSpace& col_space,
                                       int quad_degree)
    : row_(&row_space),
      col_(&col_space),
      row_table_(&row_space.shape_table(quad_degree)),
      col_table_(&col_space.shape_table(quad_degree)),
      geo_(row_space.mesh()) {
  HETERO_REQUIRE(&row_space.mesh() == &col_space.mesh(),
                 "mixed kernel spaces must share one mesh");
}

void MixedElementKernel::grad_row_times_col(std::size_t t, int axis,
                                            std::span<double> out) const {
  const int nr = row_table_->dofs;
  const int nc = col_table_->dofs;
  HETERO_REQUIRE(static_cast<int>(out.size()) == nr * nc,
                 "grad_row_times_col: output span size mismatch");
  HETERO_REQUIRE(axis >= 0 && axis < 3, "axis must be 0, 1 or 2");
  const auto& geo = geo_.get(t);
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t nq = row_table_->points.size();
  for (std::size_t q = 0; q < nq; ++q) {
    const double w = row_table_->points[q].weight * geo.det;
    const auto& psi = col_table_->values[q];
    for (int i = 0; i < nr; ++i) {
      const mesh::Vec3 g =
          geo.physical_grad(row_table_->grads[q][static_cast<std::size_t>(i)]);
      const double gi = axis == 0 ? g.x : axis == 1 ? g.y : g.z;
      for (int j = 0; j < nc; ++j) {
        out[static_cast<std::size_t>(i * nc + j)] +=
            w * gi * psi[static_cast<std::size_t>(j)];
      }
    }
  }
  fem_work().add(static_cast<double>(nq) *
                     (1.0 + 16.0 * nr + 2.0 * static_cast<double>(nr) * nc),
                 8.0 * static_cast<double>(nr) * nc);
}

}  // namespace hetero::fem
