#include "apps/rd_solver.hpp"

#include <cmath>
#include <span>

#include "fem/bdf.hpp"
#include "fem/error_norms.hpp"
#include "la/kernels.hpp"
#include "partition/partitioner.hpp"
#include "support/error.hpp"

namespace hetero::apps {

double rd_exact_solution(const mesh::Vec3& x, double t) {
  return t * t * (x.x * x.x + x.y * x.y + x.z * x.z);
}

namespace {
bool on_unit_box_boundary(const mesh::Vec3& x) {
  const double eps = 1e-12;
  return x.x < eps || x.x > 1.0 - eps || x.y < eps || x.y > 1.0 - eps ||
         x.z < eps || x.z > 1.0 - eps;
}
}  // namespace

RdSolver::RdSolver(simmpi::Comm& comm, RdConfig config)
    : comm_(&comm), config_(std::move(config)) {
  HETERO_REQUIRE(config_.global_cells >= 1, "RD needs at least one cell");
  HETERO_REQUIRE(config_.t0 > 0.0,
                 "RD coefficients are singular at t = 0; pick t0 > 0");
  spec_ = mesh::BoxMeshSpec{config_.global_cells, config_.global_cells,
                            config_.global_cells};

  // Step (i): partition the domain. Default: every rank builds only its
  // structured block. With capacity weights (a rebalance under per-rank
  // skew), every rank runs the same deterministic weighted RCB over the
  // global mesh and extracts its share — pure functions of the inputs, so
  // all ranks agree without communication.
  if (config_.rank_weights.empty()) {
    mesh::BlockDecomposition decomposition(spec_, comm.size());
    submesh_ = mesh::build_box_submesh(spec_, decomposition.box(comm.rank()));
  } else {
    HETERO_REQUIRE(
        static_cast<int>(config_.rank_weights.size()) == comm.size(),
        "RD rank_weights needs exactly one weight per rank");
    const mesh::TetMesh global = mesh::build_box_mesh(spec_);
    const std::vector<int> part = partition::partition_rcb(
        global, comm.size(), std::span<const double>(config_.rank_weights));
    submesh_ = partition::extract_submesh(global, part, comm.rank());
    HETERO_REQUIRE(submesh_.tet_count() > 0,
                   "weighted repartition left a rank without elements; "
                   "loosen the weight clamp or use fewer ranks");
  }
  space_ = std::make_unique<fem::FeSpace>(submesh_, config_.order,
                                          spec_.vertex_count());
  kernel_ = std::make_unique<fem::ElementKernel>(*space_,
                                                 config_.order == 2 ? 4 : 2);
  builder_ = std::make_unique<la::DistSystemBuilder>(comm, space_->dof_gids());
  precond_ = solvers::make_preconditioner(config_.preconditioner);

  // First assembly freezes the structure so later steps replay cheaply.
  time_ = config_.t0;
  assemble(time_ + config_.dt);
  workspace_ = std::make_unique<solvers::KrylovWorkspace>(builder_->map());
  x_.emplace(builder_->map());
  if (la::kernel_mode() == la::KernelMode::kFast) {
    // Built here, outside the timed step phases, so every step has the same
    // communication schedule — including the first step after a checkpoint
    // restart re-creates the solver mid-run.
    dirichlet_ = std::make_unique<fem::DirichletPlan>(
        *comm_, *space_, builder_->map(), builder_->halo(),
        on_unit_box_boundary);
  }

  // Two exact time levels prime BDF2 (the paper also knows the exact
  // solution and uses it for initial/boundary data).
  u_prev_.emplace(fem::interpolate(
      comm, *space_, builder_->map(), builder_->halo(),
      [&](const mesh::Vec3& x) { return rd_exact_solution(x, time_ - config_.dt); }));
  u_now_.emplace(fem::interpolate(
      comm, *space_, builder_->map(), builder_->halo(),
      [&](const mesh::Vec3& x) { return rd_exact_solution(x, time_); }));
}

void RdSolver::assemble(double t_new) {
  // Weak form at t_{k+1}:
  //   (alpha/dt) (u,v) + mu(t) (grad u, grad v) + sigma(t) (u,v)
  //     = (-6, v) + (1/dt) (beta0 u^k + beta1 u^{k-1}, v)
  // with mu = 1/t^2, sigma = -2/t.
  const auto bdf = fem::bdf_scheme(config_.time_order);
  const double mu = 1.0 / (t_new * t_new);
  const double sigma = -2.0 / t_new;
  const double mass_coeff = bdf.alpha / config_.dt + sigma;

  const int n = kernel_->n();
  me_.resize(static_cast<std::size_t>(n * n));
  ke_.resize(static_cast<std::size_t>(n * n));
  fe_.resize(static_cast<std::size_t>(n));
  ae_.resize(static_cast<std::size_t>(n * n));
  re_.resize(static_cast<std::size_t>(n));
  gids_.resize(static_cast<std::size_t>(n));
  const fem::SpatialFn source = [](const mesh::Vec3&) { return -6.0; };

  // History values in space-local ordering (absent on the very first call,
  // before the initial conditions exist: rhs history terms are zero then,
  // which is fine because that call only freezes the structure).
  hist_.clear();
  if (u_now_) {
    u_now_->update_ghosts(*comm_, builder_->halo());
    u_prev_->update_ghosts(*comm_, builder_->halo());
    const auto now_vals = fem::space_values(*space_, builder_->map(), *u_now_);
    const auto prev_vals =
        fem::space_values(*space_, builder_->map(), *u_prev_);
    hist_.resize(now_vals.size());
    for (std::size_t i = 0; i < hist_.size(); ++i) {
      hist_[i] = (bdf.beta[0] * now_vals[i] + bdf.beta[1] * prev_vals[i]) /
                 config_.dt;
    }
  }

  // The integrals are geometry-only; fast mode computes them once and
  // rescales the cached values on later assemblies (identical arithmetic:
  // the cached numbers are exactly what the quadrature sweep produced).
  const bool fast = la::kernel_mode() == la::KernelMode::kFast;
  const std::size_t tets = submesh_.tet_count();
  const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  if (fast && !elems_cached_) {
    elem_me_.resize(tets * nn);
    elem_ke_.resize(tets * nn);
    elem_fe_.resize(tets * static_cast<std::size_t>(n));
  }

  builder_->begin_assembly();
  for (std::size_t t = 0; t < tets; ++t) {
    std::span<double> me(me_), ke(ke_), fe(fe_);
    if (fast) {
      me = std::span<double>(elem_me_.data() + t * nn, nn);
      ke = std::span<double>(elem_ke_.data() + t * nn, nn);
      fe = std::span<double>(elem_fe_.data() + t * static_cast<std::size_t>(n),
                             static_cast<std::size_t>(n));
    }
    if (!fast || !elems_cached_) {
      // One fused quadrature sweep (three separate sweeps in reference
      // mode; same element values either way).
      kernel_->mass_stiffness_load(t, source, me, ke, fe);
    }
    space_->tet_dof_gids(t, gids_);
    const auto dofs = space_->tet_dofs(t);
    for (int i = 0; i < n; ++i) {
      double rhs_i = fe[static_cast<std::size_t>(i)];
      for (int j = 0; j < n; ++j) {
        const double m_ij = me[static_cast<std::size_t>(i * n + j)];
        ae_[static_cast<std::size_t>(i * n + j)] =
            mass_coeff * m_ij + mu * ke[static_cast<std::size_t>(i * n + j)];
        if (!hist_.empty()) {
          rhs_i += m_ij * hist_[static_cast<std::size_t>(dofs[j])];
        }
      }
      re_[static_cast<std::size_t>(i)] = rhs_i;
    }
    // Row-major block scatter == the nested add_matrix/add_rhs sequence.
    builder_->add_dense_block(gids_, gids_, ae_);
    builder_->add_rhs_block(gids_, re_);
  }
  if (fast) {
    elems_cached_ = true;
  }
  // Charge the modeled element-computation cost to the virtual clock.
  const double entries = static_cast<double>(submesh_.tet_count()) *
                         static_cast<double>(n) * static_cast<double>(n);
  comm_->compute(config_.cpu.scale(entries * config_.cpu.assembly_sec_per_entry));
  builder_->finalize(*comm_);
}

StepRecord RdSolver::step() {
  StepRecord record;
  const double t_new = time_ + config_.dt;

  comm_->barrier();  // align clocks so phase maxima are meaningful
  const double t_begin = comm_->now();

  // ---- step (ii): assembly ----------------------------------------------
  assemble(t_new);
  const auto g = [&](const mesh::Vec3& x) {
    return rd_exact_solution(x, t_new);
  };
  x_->copy_from(*u_now_);  // warm start from the previous time level
  if (la::kernel_mode() == la::KernelMode::kFast) {
    // Frozen constraint set: values-only refresh + cached elimination. The
    // plan normally exists already (built in the constructor); the fallback
    // covers a mode switch after construction.
    if (!dirichlet_) {
      dirichlet_ = std::make_unique<fem::DirichletPlan>(
          *comm_, *space_, builder_->map(), builder_->halo(),
          on_unit_box_boundary);
    }
    dirichlet_->update(*comm_, builder_->halo(), g);
    dirichlet_->apply(builder_->matrix(), builder_->rhs(), *x_);
  } else {
    fem::DirichletData bc =
        fem::make_dirichlet(*comm_, *space_, builder_->map(),
                            builder_->halo(), on_unit_box_boundary, g);
    fem::apply_dirichlet(builder_->matrix(), builder_->rhs(), *x_, bc);
  }
  const double t_assembled = comm_->now();

  // ---- step (iiia): preconditioner ---------------------------------------
  precond_->build(builder_->matrix());
  const auto nnz = static_cast<double>(builder_->matrix().local().nonzeros());
  comm_->compute(config_.cpu.scale(nnz * config_.cpu.ilu_sec_per_nnz));
  const double t_preconditioned = comm_->now();

  // ---- step (iiib): solve -------------------------------------------------
  solvers::SolverConfig sc;
  sc.rel_tolerance = config_.solver_tolerance;
  sc.max_iterations = config_.max_solver_iterations;
  HETERO_REQUIRE(config_.krylov == "cg" || config_.krylov == "bicgstab",
                 "RD supports the cg and bicgstab solvers");
  const auto report =
      config_.krylov == "cg"
          ? solvers::cg_solve(*comm_, builder_->matrix(), *precond_,
                              builder_->rhs(), *x_, sc, *workspace_)
          : solvers::bicgstab_solve(*comm_, builder_->matrix(), *precond_,
                                    builder_->rhs(), *x_, sc, *workspace_);
  const auto rows = static_cast<double>(builder_->map().owned_count());
  comm_->compute(config_.cpu.scale(
      report.iterations *
      (nnz * (config_.cpu.spmv_sec_per_nnz + config_.cpu.trisolve_sec_per_nnz) +
       10.0 * rows * config_.cpu.vec_sec_per_entry)));
  const double t_solved = comm_->now();

  // Bookkeeping and reductions (not part of the timed phases).
  u_prev_->copy_from(*u_now_);
  u_now_->copy_from(*x_);
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
      static_cast<std::int64_t>(submesh_.tet_count()) * kernel_->n() *
      kernel_->n();
  record.work.halo_doubles =
      static_cast<std::int64_t>(builder_->halo().import_size());
  record.work.solver_iterations = report.iterations;

  // The paper reports the slowest rank per phase.
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
    // The balancer needs each rank's own step time, not the maximum: the
    // gap between them is exactly the imbalance signal.
    const double mine = t_solved - t_begin;
    record.rank_step_s =
        comm_->allgatherv(std::span<const double>(&mine, 1));
  }

  trace_step_phases(comm_->rank(), t_begin, t_assembled,
                    t_preconditioned, t_solved);
  if (comm_->rank() == 0) {
    record_phase_metrics(record.timing);
  }

  if (config_.compute_errors) {
    u_now_->update_ghosts(*comm_, builder_->halo());
    auto exact = [&](const mesh::Vec3& p) {
      return rd_exact_solution(p, time_);
    };
    record.nodal_error = fem::nodal_max_error(*comm_, *space_,
                                              builder_->map(), *u_now_, exact);
    record.l2_error =
        fem::l2_error(*comm_, *kernel_, builder_->map(), *u_now_, exact);
  }
  return record;
}

void RdSolver::restore_state(const la::DistVector& u_now,
                             const la::DistVector& u_prev, double time) {
  HETERO_REQUIRE(time > 0.0, "restore_state: time must be positive");
  u_now_->copy_from(u_now);
  u_prev_->copy_from(u_prev);
  time_ = time;
}

std::vector<StepRecord> RdSolver::run(int steps) {
  std::vector<StepRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    records.push_back(step());
  }
  return records;
}

}  // namespace hetero::apps
