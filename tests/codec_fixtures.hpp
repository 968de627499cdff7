#pragma once

/// \file codec_fixtures.hpp
/// An Experiment and an ExperimentResult with every field set away from
/// its default, shared by the golden cache-key / codec tests and by the
/// codec mutation tests, plus per-field helpers that walk visit_fields. The
/// golden values pinned against these fixtures are the persisted formats
/// (memo-store keys and HMS1 `exp|` values), so the fixtures must never
/// change: add a field's non-default value only when the field itself is
/// new.

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "support/byte_codec.hpp"

namespace hetero::test {

inline core::Experiment every_field_experiment() {
  core::Experiment e;
  e.app = perf::AppKind::kNavierStokes;
  e.platform = "ec2";
  e.ranks = 125;
  e.cells_per_rank_axis = 17;
  e.element_order = 2;
  e.mode = core::Mode::kDirect;
  e.direct_steps = 9;
  e.ec2_spot_mix = true;
  e.ec2_placement_groups = 4;
  e.cross_group_penalty = 0.031;
  e.ec2_spot_bid_usd = 0.77;
  e.faults.rank_crash_rate = 0.01;
  e.faults.launch_failure_rate = 0.02;
  e.faults.reclaim_storm_rate = 0.04;
  e.faults.net_degrade_rate = 0.03;
  e.faults.net_degrade_factor = 2.5;
  e.faults.net_degrade_window_s = 45.0;
  e.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  e.recovery.checkpoint_every = 5;
  e.recovery.max_attempts = 7;
  e.recovery.backoff_base_s = 12.5;
  e.recovery.backoff_factor = 1.5;
  e.recovery.backoff_cap_s = 900.0;
  e.recovery.shrink_ranks_on_crash = true;
  e.rebroker.enabled = true;
  e.rebroker.fallback_platform = "lagrange";
  e.rebroker.target_ranks = 27;
  e.rebroker.hysteresis = 0.2;
  e.rebroker.migrate_budget_usd = 1.25;
  e.rebroker.sample_every = 2;
  e.rebroker.deadline_s = 3600.0;
  e.rebroker.max_migrations = 3;
  e.rebroker.run_label = "golden";
  e.skew.slow_core_fraction = 0.25;
  e.skew.slow_core_factor = 2.5;
  e.skew.noise_rate = 0.1;
  e.skew.noise_factor = 1.75;
  e.skew.window_s = 20.0;
  e.skew_assume_balanced = true;
  e.balance.enabled = true;
  e.balance.threshold = 1.3;
  e.balance.check_every = 2;
  e.balance.min_steps = 3;
  e.balance.max_rebalances = 6;
  e.balance.mode = "diffuse";
  e.balance.min_weight = 0.2;
  e.balance.max_weight = 5.0;
  e.balance.diffusion_eta = 0.4;
  e.seed = 0x8000000000000123ull;  // >= 2^63: the key prints it signed
  return e;
}

inline core::ExperimentResult every_field_result() {
  core::ExperimentResult r;
  r.launched = true;
  r.failure_reason = "queue limit: max 16 nodes per job";
  r.queue_wait_s = 0.1 + 0.2;  // not representable exactly: bit test
  r.provisioning_hours = 11.65;
  r.iteration.assembly_s = 1.0 / 3.0;
  r.iteration.preconditioner_s = 2e-9;
  r.iteration.solve_s = 123.456789012345678;
  r.iteration.total_s = 124.0;
  r.iteration.solver_iterations = 87.5;
  r.hosts = 13;
  r.cost_per_iteration_usd = 0.007;
  r.est_cost_per_iteration_usd = 0.0065;
  r.spot_hosts = 4;
  r.work_per_rank.local_tets = 1234567890123;
  r.work_per_rank.local_rows = 42;
  r.work_per_rank.local_nonzeros = 9876543210;
  r.work_per_rank.matrix_entries_assembled = 5555;
  r.work_per_rank.halo_doubles = -1;
  r.work_per_rank.solver_iterations = 87;
  r.nodal_error = 3.0303e-12;
  r.solver_converged = false;
  r.resil.attempts = 3;
  r.resil.faults_injected = 2;
  r.resil.launch_retries = 1;
  r.resil.steps_wasted = 4;
  r.resil.steps_recovered = 5;
  r.resil.checkpoints_written = 6;
  r.resil.retry_delay_s = 90.0;
  r.resil.wasted_sim_s = 12.5;
  r.resil.wasted_cost_usd = 0.25;
  r.resil.recovered = true;
  r.resil.final_ranks = 64;
  r.rebroker.samples = 7;
  r.rebroker.decisions = 6;
  r.rebroker.migrations = 1;
  r.rebroker.storms = 2;
  r.rebroker.final_platform = "puma";
  r.rebroker.migration_wait_s = 33.5;
  r.rebroker.migration_cost_usd = 4.75;
  r.rebroker.trail = {R"({"kind":"sample","step":1})",
                      R"({"kind":"migrate","to":"puma"})"};
  r.balance.checks = 9;
  r.balance.rebalances = 2;
  r.balance.last_imbalance = 1.07;
  return r;
}

/// 64-bit FNV-1a: a compact golden digest of a byte string.
inline std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Each field of `obj` encoded on its own, in visit_fields order: two
/// objects hold the same value in field i iff entry i matches.
template <class T>
std::vector<std::string> field_bytes(const T& obj) {
  std::vector<std::string> out;
  visit_fields(obj, [&out](const auto& field) {
    support::put_field(out.emplace_back(), field);
  });
  return out;
}

/// A value different from `v` of the same type.
template <class F>
void perturb(F& v) {
  if constexpr (std::is_same_v<F, bool>) {
    v = !v;
  } else if constexpr (std::is_enum_v<F>) {
    v = static_cast<F>(static_cast<int>(v) == 0 ? 1 : 0);
  } else if constexpr (std::is_same_v<F, std::string>) {
    v += "~";
  } else if constexpr (std::is_same_v<F, std::vector<std::string>>) {
    v.push_back("~");
  } else {
    v += 1;  // ints and doubles alike
  }
}

/// `obj` with only field `index` (in visit_fields order) perturbed.
template <class T>
T with_field_perturbed(T obj, std::size_t index) {
  std::size_t i = 0;
  visit_fields(obj, [&](auto& field) {
    if (i++ == index) {
      perturb(field);
    }
  });
  return obj;
}

}  // namespace hetero::test
