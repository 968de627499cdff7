#pragma once

/// \file policy.hpp
/// The online re-brokering policy an Experiment carries, and the outcome
/// ledger a direct run reports back. Plain data on purpose: the policy is
/// part of the experiment's identity (it goes into the campaign engine's
/// memoization key bit for bit), and the outcome rides inside
/// ExperimentResult through the svc result codec.
///
/// The control loop itself lives in controller.hpp; the full story —
/// sampling cadence, hysteresis, deadline/cost verdict, migration
/// mechanics — is docs/rebrokering.md.

#include <string>
#include <vector>

namespace hetero::rebroker {

/// Schema tag stamped on every decision-trail record.
inline constexpr const char* kTrailSchema = "heterolab-rebroker-v1";

struct Policy {
  /// Master switch; everything below is inert while false, and a disabled
  /// policy leaves the direct-run code path byte-identical to PR 6.
  bool enabled = false;

  /// Where to migrate when the verdict flips (must name a builtin
  /// platform; the controller re-prices it at every decision point).
  std::string fallback_platform = "puma";

  /// Rank count on the fallback platform; 0 = the largest cubic count the
  /// fallback can launch that does not exceed the current one (the
  /// gid-keyed checkpoint redistributes either way).
  int target_ranks = 0;

  /// Relative margin the move verdict must clear before a migration fires
  /// (and, symmetrically, before migrating back): move beats stay only
  /// when move * (1 + hysteresis) < stay. Damps flapping under
  /// oscillating drift.
  double hysteresis = 0.15;

  /// Cap on the dollars a migration may commit to (the projected
  /// remaining spend on the target platform). 0 = unlimited.
  double migrate_budget_usd = 0.0;

  /// Evaluate the re-pricing verdict every K completed steps.
  int sample_every = 1;

  /// Deadline on the campaign's virtual clock (seconds since the job
  /// started running, backoffs and migration waits included). 0 = none.
  double deadline_s = 0.0;

  /// Migrations allowed per run (migrate-back counts).
  int max_migrations = 1;

  /// Label stamped on every trail record ("run" field); benches use it to
  /// keep per-experiment trails separable in one concatenated file.
  std::string run_label;
};

/// What the re-broker did during one direct run, including the rendered
/// heterolab-rebroker-v1 decision trail (of the adopted replica).
struct Outcome {
  int samples = 0;     ///< sample records written
  int decisions = 0;   ///< decision evaluations (stay and migrate alike)
  int migrations = 0;  ///< migrations executed
  int storms = 0;      ///< spot-reclaim storms endured (counted even when
                       ///< the policy is disabled and merely suffered)
  std::string final_platform;  ///< platform of the successful attempt
  double migration_wait_s = 0.0;   ///< queue waits charged by migrations
  double migration_cost_usd = 0.0; ///< remaining-spend committed at moves
  std::vector<std::string> trail;  ///< rendered JSONL, submission order
};

}  // namespace hetero::rebroker
