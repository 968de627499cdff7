#include "apps/ns_solver.hpp"

#include <cmath>
#include <span>

#include "fem/bdf.hpp"
#include "fem/error_norms.hpp"
#include "la/kernels.hpp"
#include "partition/partitioner.hpp"
#include "support/error.hpp"

namespace hetero::apps {

namespace {
constexpr double kA = M_PI / 4.0;
constexpr double kD = M_PI / 2.0;
// Component-expansion factor of the block gid scheme: 0..2 velocity, 3
// pressure. Velocity gids live on the (possibly richer) velocity space;
// pressure gids on the P1 vertex space — disjoint by construction.
constexpr int kComps = 4;
}  // namespace

double es_velocity(const mesh::Vec3& p, double t, double nu, int comp) {
  const double f = std::exp(-nu * kD * kD * t);
  const double x = p.x;
  const double y = p.y;
  const double z = p.z;
  switch (comp) {
    case 0:
      return -kA *
             (std::exp(kA * x) * std::sin(kA * y + kD * z) +
              std::exp(kA * z) * std::cos(kA * x + kD * y)) *
             f;
    case 1:
      return -kA *
             (std::exp(kA * y) * std::sin(kA * z + kD * x) +
              std::exp(kA * x) * std::cos(kA * y + kD * z)) *
             f;
    case 2:
      return -kA *
             (std::exp(kA * z) * std::sin(kA * x + kD * y) +
              std::exp(kA * y) * std::cos(kA * z + kD * x)) *
             f;
    default:
      throw Error("es_velocity: component must be 0, 1 or 2");
  }
}

double es_pressure(const mesh::Vec3& p, double t, double nu) {
  const double f2 = std::exp(-2.0 * nu * kD * kD * t);
  const double x = p.x;
  const double y = p.y;
  const double z = p.z;
  return -(kA * kA / 2.0) *
         (std::exp(2.0 * kA * x) + std::exp(2.0 * kA * y) +
          std::exp(2.0 * kA * z) +
          2.0 * std::sin(kA * x + kD * y) * std::cos(kA * z + kD * x) *
              std::exp(kA * (y + z)) +
          2.0 * std::sin(kA * y + kD * z) * std::cos(kA * x + kD * y) *
              std::exp(kA * (z + x)) +
          2.0 * std::sin(kA * z + kD * x) * std::cos(kA * y + kD * z) *
              std::exp(kA * (x + y))) *
         f2;
}

la::GlobalId NsSolver::vel_gid(int dof, int comp) const {
  return fem::FeSpace::block_gid(space_v_->dof_gid(dof), comp, kComps);
}

la::GlobalId NsSolver::pres_gid(int dof) const {
  return fem::FeSpace::block_gid(space_p_->dof_gid(dof), 3, kComps);
}

NsSolver::NsSolver(simmpi::Comm& comm, NsConfig config)
    : comm_(&comm), config_(std::move(config)) {
  HETERO_REQUIRE(config_.global_cells >= 1, "NS needs at least one cell");
  HETERO_REQUIRE(config_.viscosity > 0.0 && config_.density > 0.0,
                 "NS needs positive viscosity and density");
  HETERO_REQUIRE(config_.velocity_order == 1 || config_.velocity_order == 2,
                 "velocity_order must be 1 (P1/P1 stab) or 2 (Taylor-Hood)");
  spec_ = mesh::BoxMeshSpec{config_.global_cells, config_.global_cells,
                            config_.global_cells,
                            {-1.0, -1.0, -1.0},
                            {1.0, 1.0, 1.0}};
  // Step (i): block decomposition by default; capacity-weighted RCB over
  // the global mesh when a rebalance supplied per-rank weights (see
  // rd_solver.cpp — the same deterministic no-communication agreement).
  if (config_.rank_weights.empty()) {
    mesh::BlockDecomposition decomposition(spec_, comm.size());
    submesh_ = mesh::build_box_submesh(spec_, decomposition.box(comm.rank()));
  } else {
    HETERO_REQUIRE(
        static_cast<int>(config_.rank_weights.size()) == comm.size(),
        "NS rank_weights needs exactly one weight per rank");
    const mesh::TetMesh global = mesh::build_box_mesh(spec_);
    const std::vector<int> part = partition::partition_rcb(
        global, comm.size(), std::span<const double>(config_.rank_weights));
    submesh_ = partition::extract_submesh(global, part, comm.rank());
    HETERO_REQUIRE(submesh_.tet_count() > 0,
                   "weighted repartition left a rank without elements; "
                   "loosen the weight clamp or use fewer ranks");
  }
  space_v_ = std::make_unique<fem::FeSpace>(submesh_, config_.velocity_order,
                                            spec_.vertex_count());
  space_p_ = std::make_unique<fem::FeSpace>(submesh_, 1, spec_.vertex_count());
  const int quad = config_.velocity_order == 2 ? 4 : 2;
  kernel_v_ = std::make_unique<fem::ElementKernel>(*space_v_, quad);
  kernel_p_ = std::make_unique<fem::ElementKernel>(*space_p_, quad);
  kernel_vp_ =
      std::make_unique<fem::MixedElementKernel>(*space_v_, *space_p_, quad);

  // Taylor-Hood is inf-sup stable: keep only a tiny pressure-Laplacian
  // regularization (so the local ILU0 has pressure pivots) unless the user
  // asked for something specific.
  stab_delta_ = config_.stabilization;
  if (config_.velocity_order == 2 && config_.stabilization == 0.05) {
    stab_delta_ = 0.002;
  }

  std::vector<la::GlobalId> touched;
  touched.reserve(static_cast<std::size_t>(space_v_->local_dof_count()) * 3 +
                  static_cast<std::size_t>(space_p_->local_dof_count()));
  for (int d = 0; d < space_v_->local_dof_count(); ++d) {
    for (int c = 0; c < 3; ++c) {
      touched.push_back(vel_gid(d, c));
    }
  }
  for (int d = 0; d < space_p_->local_dof_count(); ++d) {
    touched.push_back(pres_gid(d));
  }
  builder_ = std::make_unique<la::DistSystemBuilder>(comm, std::move(touched));
  precond_ = solvers::make_preconditioner(config_.preconditioner);
  geo_cache_.emplace(submesh_);

  time_ = config_.t0;
  assemble();  // freezes the structure; history terms are zero here
  workspace_ = std::make_unique<solvers::KrylovWorkspace>(builder_->map());
  x_.emplace(builder_->map());
  if (la::kernel_mode() == la::KernelMode::kFast) {
    // Built here, outside the timed step phases, so every step has the same
    // communication schedule — including the first step after a checkpoint
    // restart re-creates the solver mid-run.
    build_dirichlet_plan();
  }

  const double nu = config_.viscosity / config_.density;
  auto interpolate_state = [&](double t) {
    la::DistVector v(builder_->map());
    for (int d = 0; d < space_v_->local_dof_count(); ++d) {
      const mesh::Vec3& xd = space_v_->dof_coord(d);
      for (int c = 0; c < 3; ++c) {
        const int l = builder_->map().local(vel_gid(d, c));
        if (l != la::kInvalidLocal) {
          v[l] = es_velocity(xd, t, nu, c);
        }
      }
    }
    for (int d = 0; d < space_p_->local_dof_count(); ++d) {
      const int l = builder_->map().local(pres_gid(d));
      if (l != la::kInvalidLocal) {
        v[l] = es_pressure(space_p_->dof_coord(d), t, nu);
      }
    }
    v.update_ghosts(*comm_, builder_->halo());
    return v;
  };
  x_prev_.emplace(interpolate_state(time_ - config_.dt));
  x_now_.emplace(interpolate_state(time_));
}

std::vector<double> NsSolver::velocity_values(const la::DistVector& v,
                                              int comp) const {
  std::vector<double> out(
      static_cast<std::size_t>(space_v_->local_dof_count()), 0.0);
  for (int d = 0; d < space_v_->local_dof_count(); ++d) {
    const int l = builder_->map().local(vel_gid(d, comp));
    HETERO_CHECK(l != la::kInvalidLocal);
    out[static_cast<std::size_t>(d)] = v[l];
  }
  return out;
}

double NsSolver::solution_at(int dof, int comp) const {
  const la::GlobalId gid = comp < 3 ? vel_gid(dof, comp) : pres_gid(dof);
  const int l = builder_->map().local(gid);
  HETERO_REQUIRE(l != la::kInvalidLocal, "solution_at: dof not local");
  return (*x_now_)[l];
}

void NsSolver::assemble() {
  const auto bdf = fem::bdf_scheme(2);
  const auto ext = fem::bdf_extrapolation(2);
  const double rho = config_.density;
  const double mu = config_.viscosity;
  const double mass_coeff = rho * bdf.alpha / config_.dt;

  const int nv = kernel_v_->n();
  const int np = kernel_p_->n();
  const std::size_t nvnv = static_cast<std::size_t>(nv * nv);
  const std::size_t npnp = static_cast<std::size_t>(np * np);
  const std::size_t nvnp = static_cast<std::size_t>(nv * np);
  me_.resize(nvnv);
  ke_.resize(nvnv);
  ce_.resize(nvnv);
  kp_.resize(npnp);
  for (auto& d : de_) {
    d.resize(nvnp);
  }
  vgids_.resize(static_cast<std::size_t>(nv));
  pgids_.resize(static_cast<std::size_t>(np));
  beta_.resize(kernel_v_->quad_count());
  beta_c_.resize(kernel_v_->quad_count());

  // Extrapolated convective velocity u* = 2 u^k - u^{k-1} and BDF history,
  // in velocity-space-local ordering per component. Empty pre-init.
  const bool have_state = x_now_.has_value();
  if (have_state) {
    x_now_->update_ghosts(*comm_, builder_->halo());
    x_prev_->update_ghosts(*comm_, builder_->halo());
    for (int c = 0; c < 3; ++c) {
      const auto now_vals = velocity_values(*x_now_, c);
      const auto prev_vals = velocity_values(*x_prev_, c);
      ustar_[c].resize(now_vals.size());
      hist_[c].resize(now_vals.size());
      for (std::size_t i = 0; i < now_vals.size(); ++i) {
        ustar_[c][i] = ext[0] * now_vals[i] + ext[1] * prev_vals[i];
        hist_[c][i] = rho *
                      (bdf.beta[0] * now_vals[i] +
                       bdf.beta[1] * prev_vals[i]) /
                      config_.dt;
      }
    }
  }

  builder_->begin_assembly();
  for (std::size_t t = 0; t < submesh_.tet_count(); ++t) {
    kernel_v_->mass(t, me_);
    kernel_v_->stiffness(t, ke_);
    kernel_p_->stiffness(t, kp_);
    for (int c = 0; c < 3; ++c) {
      // D_c(i,j) = int d(phi^v_i)/dx_c psi^p_j.
      kernel_vp_->grad_row_times_col(t, c, de_[c]);
    }
    // Convection at quadrature points from the extrapolated velocity.
    if (have_state) {
      for (int c = 0; c < 3; ++c) {
        kernel_v_->eval_at_quad(t, ustar_[c], beta_c_);
        for (std::size_t q = 0; q < beta_.size(); ++q) {
          if (c == 0) beta_[q].x = beta_c_[q];
          if (c == 1) beta_[q].y = beta_c_[q];
          if (c == 2) beta_[q].z = beta_c_[q];
        }
      }
    } else {
      std::fill(beta_.begin(), beta_.end(), mesh::Vec3{});
    }
    kernel_v_->convection(t, beta_, ce_);

    // Pressure-Laplacian coefficient: delta h_K^2 / mu.
    const auto& geo = geo_cache_->get(t);
    const double h2 = std::cbrt(geo.det) * std::cbrt(geo.det);
    const double stab = stab_delta_ * h2 / mu;

    space_v_->tet_dof_gids(t, vgids_);
    // Pressure gids carry the component shift directly.
    for (int j = 0; j < np; ++j) {
      pgids_[static_cast<std::size_t>(j)] = fem::FeSpace::block_gid(
          space_p_->dof_gid(space_p_->tet_dofs(t)[static_cast<std::size_t>(j)]),
          3, kComps);
    }
    const auto vdofs = space_v_->tet_dofs(t);

    for (int i = 0; i < nv; ++i) {
      const la::GlobalId gi = vgids_[static_cast<std::size_t>(i)];
      for (int c = 0; c < 3; ++c) {
        const la::GlobalId row = fem::FeSpace::block_gid(gi, c, kComps);
        double rhs_i = 0.0;
        for (int j = 0; j < nv; ++j) {
          const std::size_t ij = static_cast<std::size_t>(i * nv + j);
          // Momentum: (rho alpha/dt) M + mu K + rho C on the (c, c) block.
          builder_->add_matrix(
              row,
              fem::FeSpace::block_gid(vgids_[static_cast<std::size_t>(j)], c,
                                      kComps),
              mass_coeff * me_[ij] + mu * ke_[ij] + rho * ce_[ij]);
          if (have_state) {
            rhs_i += me_[ij] * hist_[c][static_cast<std::size_t>(vdofs[j])];
          }
        }
        // Pressure gradient: -(p, d v_c / d x_c) = -D_c(i, j) p_j.
        for (int j = 0; j < np; ++j) {
          builder_->add_matrix(row, pgids_[static_cast<std::size_t>(j)],
                               -de_[c][static_cast<std::size_t>(i * np + j)]);
        }
        builder_->add_rhs(row, rhs_i);
      }
    }
    // Continuity rows: (q, div u) + stabilization.
    for (int j = 0; j < np; ++j) {
      const la::GlobalId prow = pgids_[static_cast<std::size_t>(j)];
      for (int i = 0; i < nv; ++i) {
        for (int c = 0; c < 3; ++c) {
          builder_->add_matrix(
              prow,
              fem::FeSpace::block_gid(vgids_[static_cast<std::size_t>(i)], c,
                                      kComps),
              de_[c][static_cast<std::size_t>(i * np + j)]);
        }
      }
      for (int jj = 0; jj < np; ++jj) {
        builder_->add_matrix(prow, pgids_[static_cast<std::size_t>(jj)],
                             stab * kp_[static_cast<std::size_t>(j * np + jj)]);
      }
      builder_->add_rhs(prow, 0.0);
    }
  }
  const double per_tet_entries =
      3.0 * nv * nv + 6.0 * nv * np + static_cast<double>(np) * np;
  comm_->compute(config_.cpu.scale(static_cast<double>(submesh_.tet_count()) *
                                   per_tet_entries *
                                   config_.cpu.assembly_sec_per_entry));
  builder_->finalize(*comm_);
}

void NsSolver::build_dirichlet_plan() {
  const double lo = -1.0 + 1e-12;
  const double hi = 1.0 - 1e-12;
  auto on_boundary = [lo, hi](const mesh::Vec3& x) {
    return x.x < lo || x.x > hi || x.y < lo || x.y > hi || x.z < lo ||
           x.z > hi;
  };
  auto corner = [lo](const mesh::Vec3& x) {
    return x.x < lo && x.y < lo && x.z < lo;
  };
  // Velocity Dirichlet everywhere (velocity space, comps 0..2); pressure
  // pinned at the (-1,-1,-1) corner (pressure space, comp 3). Both spaces
  // write into one constraint set on the block map, in the same order as
  // the reference path's two dof sweeps.
  dirichlet_ = std::make_unique<fem::DirichletPlan>(
      *comm_, builder_->map(), builder_->halo(),
      [&](const std::function<void(int, const mesh::Vec3&, int)>& add) {
        for (int d = 0; d < space_v_->local_dof_count(); ++d) {
          const mesh::Vec3& x = space_v_->dof_coord(d);
          if (!on_boundary(x)) {
            continue;
          }
          for (int c = 0; c < 3; ++c) {
            const int l = builder_->map().local(vel_gid(d, c));
            if (l != la::kInvalidLocal && builder_->map().is_owned_local(l)) {
              add(l, x, c);
            }
          }
        }
        for (int d = 0; d < space_p_->local_dof_count(); ++d) {
          const mesh::Vec3& x = space_p_->dof_coord(d);
          if (!corner(x)) {
            continue;
          }
          const int l = builder_->map().local(pres_gid(d));
          if (l != la::kInvalidLocal && builder_->map().is_owned_local(l)) {
            add(l, x, 3);
          }
        }
      });
}

StepRecord NsSolver::step() {
  StepRecord record;
  const double t_new = time_ + config_.dt;
  const double nu = config_.viscosity / config_.density;

  comm_->barrier();
  const double t_begin = comm_->now();

  // ---- assembly -----------------------------------------------------------
  assemble();
  const double lo = -1.0 + 1e-12;
  const double hi = 1.0 - 1e-12;
  auto on_boundary = [lo, hi](const mesh::Vec3& x) {
    return x.x < lo || x.x > hi || x.y < lo || x.y > hi || x.z < lo ||
           x.z > hi;
  };
  auto corner = [lo](const mesh::Vec3& x) {
    return x.x < lo && x.y < lo && x.z < lo;
  };
  // Velocity Dirichlet everywhere from the exact solution (over the
  // velocity space); pressure pinned at the (-1,-1,-1) corner (pressure
  // space). Both spaces write into one constraint set on the block map.
  // Values come from es_velocity (comp 0..2) / es_pressure (comp 3).
  auto bc_value = [&](const mesh::Vec3& p, int c) {
    return c < 3 ? es_velocity(p, t_new, nu, c) : es_pressure(p, t_new, nu);
  };
  x_->copy_from(*x_now_);
  if (la::kernel_mode() == la::KernelMode::kFast) {
    // The plan normally exists already (built in the constructor, outside
    // the timed phases); the fallback covers a mode switch after it.
    if (!dirichlet_) {
      build_dirichlet_plan();
    }
    dirichlet_->update_block(*comm_, builder_->halo(), bc_value);
    dirichlet_->apply(builder_->matrix(), builder_->rhs(), *x_);
  } else {
    fem::DirichletData bc(builder_->map());
    for (int d = 0; d < space_v_->local_dof_count(); ++d) {
      const mesh::Vec3& x = space_v_->dof_coord(d);
      if (!on_boundary(x)) {
        continue;
      }
      for (int c = 0; c < 3; ++c) {
        const int l = builder_->map().local(vel_gid(d, c));
        if (l != la::kInvalidLocal && builder_->map().is_owned_local(l)) {
          bc.flags[l] = 1.0;
          bc.values[l] = es_velocity(x, t_new, nu, c);
        }
      }
    }
    for (int d = 0; d < space_p_->local_dof_count(); ++d) {
      const mesh::Vec3& x = space_p_->dof_coord(d);
      if (!corner(x)) {
        continue;
      }
      const int l = builder_->map().local(pres_gid(d));
      if (l != la::kInvalidLocal && builder_->map().is_owned_local(l)) {
        bc.flags[l] = 1.0;
        bc.values[l] = es_pressure(x, t_new, nu);
      }
    }
    bc.flags.update_ghosts(*comm_, builder_->halo());
    bc.values.update_ghosts(*comm_, builder_->halo());
    fem::apply_dirichlet(builder_->matrix(), builder_->rhs(), *x_, bc);
  }
  const double t_assembled = comm_->now();

  // ---- preconditioner ------------------------------------------------------
  precond_->build(builder_->matrix());
  const auto nnz = static_cast<double>(builder_->matrix().local().nonzeros());
  comm_->compute(config_.cpu.scale(nnz * config_.cpu.ilu_sec_per_nnz));
  const double t_preconditioned = comm_->now();

  // ---- solve ----------------------------------------------------------------
  solvers::SolverConfig sc;
  sc.rel_tolerance = config_.solver_tolerance;
  sc.max_iterations = config_.max_solver_iterations;
  sc.restart = config_.gmres_restart;
  HETERO_REQUIRE(config_.krylov == "gmres" || config_.krylov == "bicgstab",
                 "NS supports the gmres and bicgstab solvers");
  const auto report =
      config_.krylov == "gmres"
          ? solvers::gmres_solve(*comm_, builder_->matrix(), *precond_,
                                 builder_->rhs(), *x_, sc, *workspace_)
          : solvers::bicgstab_solve(*comm_, builder_->matrix(), *precond_,
                                    builder_->rhs(), *x_, sc, *workspace_);
  const auto rows = static_cast<double>(builder_->map().owned_count());
  comm_->compute(config_.cpu.scale(
      report.iterations *
      (nnz * (config_.cpu.spmv_sec_per_nnz + config_.cpu.trisolve_sec_per_nnz) +
       12.0 * rows * config_.cpu.vec_sec_per_entry)));
  const double t_solved = comm_->now();

  x_prev_->copy_from(*x_now_);
  x_now_->copy_from(*x_);
  time_ = t_new;
  ++steps_;

  record.time = time_;
  record.solver_iterations = report.iterations;
  record.solver_converged = report.converged;
  record.residual = report.final_residual;
  record.work.local_tets = static_cast<std::int64_t>(submesh_.tet_count());
  record.work.local_rows = builder_->map().owned_count();
  record.work.local_nonzeros = builder_->matrix().local().nonzeros();
  record.work.matrix_entries_assembled =
      static_cast<std::int64_t>(submesh_.tet_count()) *
      (3 * kernel_v_->n() * kernel_v_->n() +
       6 * kernel_v_->n() * kernel_p_->n() +
       kernel_p_->n() * kernel_p_->n());
  record.work.halo_doubles =
      static_cast<std::int64_t>(builder_->halo().import_size());
  record.work.solver_iterations = report.iterations;

  const double phases[4] = {t_assembled - t_begin,
                            t_preconditioned - t_assembled,
                            t_solved - t_preconditioned, t_solved - t_begin};
  const auto maxed = comm_->allreduce(std::span<const double>(phases, 4),
                                      simmpi::ReduceOp::kMax);
  record.timing.assembly_s = maxed[0];
  record.timing.preconditioner_s = maxed[1];
  record.timing.solve_s = maxed[2];
  record.timing.total_s = maxed[3];

  if (config_.collect_rank_step_s) {
    const double mine = t_solved - t_begin;
    record.rank_step_s = comm_->allgatherv(std::span<const double>(&mine, 1));
  }

  trace_step_phases(comm_->rank(), t_begin, t_assembled,
                    t_preconditioned, t_solved);
  if (comm_->rank() == 0) {
    record_phase_metrics(record.timing);
  }

  if (config_.compute_errors) {
    x_now_->update_ghosts(*comm_, builder_->halo());
    // Max nodal velocity error over owned dofs and components.
    double local = 0.0;
    for (int d = 0; d < space_v_->local_dof_count(); ++d) {
      for (int c = 0; c < 3; ++c) {
        const int l = builder_->map().local(vel_gid(d, c));
        if (l == la::kInvalidLocal || !builder_->map().is_owned_local(l)) {
          continue;
        }
        local = std::max(local,
                         std::fabs((*x_now_)[l] -
                                   es_velocity(space_v_->dof_coord(d), time_,
                                               nu, c)));
      }
    }
    record.nodal_error = comm_->allreduce(local, simmpi::ReduceOp::kMax);
    // L2 error of the first velocity component via the element kernel.
    const auto u0 = velocity_values(*x_now_, 0);
    double l2 = 0.0;
    std::vector<double> uh(kernel_v_->quad_count());
    std::vector<mesh::Vec3> xq(kernel_v_->quad_count());
    for (std::size_t t = 0; t < submesh_.tet_count(); ++t) {
      kernel_v_->eval_at_quad(t, u0, uh);
      kernel_v_->quad_points(t, xq);
      const auto& geo = geo_cache_->get(t);
      for (std::size_t q = 0; q < uh.size(); ++q) {
        const double diff = uh[q] - es_velocity(xq[q], time_, nu, 0);
        l2 += kernel_v_->table().points[q].weight * geo.det * diff * diff;
      }
    }
    record.l2_error =
        std::sqrt(comm_->allreduce(l2, simmpi::ReduceOp::kSum));
  }
  return record;
}

void NsSolver::restore_state(const la::DistVector& x_now,
                             const la::DistVector& x_prev, double time) {
  x_now_->copy_from(x_now);
  x_prev_->copy_from(x_prev);
  time_ = time;
}

std::vector<StepRecord> NsSolver::run(int steps) {
  std::vector<StepRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    records.push_back(step());
  }
  return records;
}

}  // namespace hetero::apps
