#include "rebroker/controller.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "platform/platform_spec.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace hetero::rebroker {

namespace {

// Distinct salts for the two quote streams ("stay" / "move" in ASCII).
constexpr std::uint64_t kStaySalt = 0x73746179ULL;
constexpr std::uint64_t kMoveSalt = 0x6d6f7665ULL;

}  // namespace

Advice advise(const AdviseInputs& in) {
  Advice a;
  const int remaining = std::max(0, in.steps_total - in.steps_done);
  // Staying continues at the *observed* pace; cost on the current platform
  // is linear in seconds, so the per-step dollar rate scales with drift.
  const double step_stay =
      in.observed_step_s > 0.0 ? in.observed_step_s : in.stay.seconds_per_step;
  double stay_cost_per_step = in.stay.cost_per_step_usd;
  if (in.stay.seconds_per_step > 0.0) {
    stay_cost_per_step *= step_stay / in.stay.seconds_per_step;
  }
  // Each expected storm costs one retry backoff plus the redone steps.
  const double expected_storms = in.storm_rate * remaining;
  const double storm_time =
      expected_storms * (in.backoff_expect_s + in.redo_steps_per_storm * step_stay);
  a.stay_finish_s = in.elapsed_s + remaining * step_stay + storm_time;
  a.stay_cost_usd =
      in.spent_usd +
      (remaining + expected_storms * in.redo_steps_per_storm) * stay_cost_per_step;
  // Migrating pays the fallback's queue from here, then runs storm-free at
  // the fallback's modeled pace (on-premises queues have no spot market).
  a.move_finish_s =
      in.elapsed_s + in.move.queue_wait_s + remaining * in.move.seconds_per_step;
  a.move_cost_usd = in.spent_usd + remaining * in.move.cost_per_step_usd;

  if (!in.move.can_launch) {
    a.migrate = false;
    a.reason = "fallback cannot launch";
    return a;
  }
  if (in.migrate_budget_usd > 0.0 &&
      remaining * in.move.cost_per_step_usd > in.migrate_budget_usd) {
    a.migrate = false;
    a.reason = "migration budget exceeded";
    return a;
  }
  const double margin = 1.0 + in.hysteresis;
  if (in.deadline_s > 0.0) {
    const bool stay_ok = a.stay_finish_s <= in.deadline_s;
    const bool move_ok = a.move_finish_s <= in.deadline_s;
    if (stay_ok && !move_ok) {
      a.migrate = false;
      a.reason = "staying meets the deadline; fallback would miss it";
      return a;
    }
    if (!stay_ok && move_ok) {
      a.migrate = true;
      a.reason = "deadline at risk; fallback meets it";
      return a;
    }
    // Both meet it (or neither can): fall through to the cost rule.
  }
  if (a.move_cost_usd * margin < a.stay_cost_usd) {
    a.migrate = true;
    a.reason = "fallback cheaper past hysteresis";
  } else {
    a.migrate = false;
    a.reason = "staying within hysteresis margin";
  }
  return a;
}

Controller::Controller(const Policy& policy, perf::AppKind app,
                       int cells_per_rank_axis, int steps_total,
                       std::uint64_t seed, double backoff_expect_s,
                       int redo_steps_per_storm)
    : policy_(policy),
      app_(app),
      cells_(cells_per_rank_axis),
      steps_total_(steps_total),
      seed_(seed),
      backoff_expect_s_(backoff_expect_s),
      redo_steps_per_storm_(redo_steps_per_storm) {
  if (policy_.enabled) {
    HETERO_REQUIRE(policy_.hysteresis >= 0.0,
                   "rebroker: hysteresis must be >= 0");
    HETERO_REQUIRE(policy_.sample_every >= 1,
                   "rebroker: sample interval must be >= 1");
    HETERO_REQUIRE(policy_.max_migrations >= 0,
                   "rebroker: max migrations must be >= 0");
    // Resolves (and validates) the fallback name up front.
    (void)largest_cubic_ranks(policy_.fallback_platform, 1);
    const int t =
        static_cast<int>(std::round(std::cbrt(policy_.target_ranks)));
    HETERO_REQUIRE(
        policy_.target_ranks == 0 || t * t * t == policy_.target_ranks,
        "re-brokering target ranks must be cubic (1, 8, 27, ...)");
    // A direct run copies its controller to every rank each attempt, so a
    // disabled one carries no per-step state.
    step_cost_usd_.assign(static_cast<std::size_t>(steps_total), 0.0);
  }
}

void Controller::begin_attempt(int attempt, const std::string& platform,
                               int ranks) {
  attempt_ = attempt;
  platform_ = platform;
  ranks_ = ranks;
  outcome_.final_platform = platform;
  elapsed_attempt_s_ = 0.0;
  spent_attempt_usd_ = 0.0;
  if (!policy_.enabled) {
    return;
  }
  stay_ = quote_platform(app_, cells_, platform, ranks, seed_, kStaySalt);
  stay_.can_launch = true;  // already running here
  stay_.queue_wait_s = 0.0;
  drift_ = obs::DriftEstimator(stay_.seconds_per_step);
  // Already on the fallback there is nowhere further to migrate.
  const int target =
      platform == policy_.fallback_platform ? 0
      : policy_.target_ranks > 0
          ? policy_.target_ranks
          : largest_cubic_ranks(policy_.fallback_platform, ranks);
  if (target < 1) {
    move_ = PlatformQuote{};
    move_.platform = policy_.fallback_platform;
    return;
  }
  move_ = quote_platform(app_, cells_, policy_.fallback_platform, target,
                         seed_, kMoveSalt);
}

AdviseInputs Controller::make_inputs(int steps_done) const {
  AdviseInputs in;
  in.steps_total = steps_total_;
  in.steps_done = steps_done;
  in.elapsed_s = elapsed_s();
  in.spent_usd = spent_usd();
  in.observed_step_s = drift_.samples() > 0 ? drift_.smoothed_s() : 0.0;
  in.storms_seen = outcome_.storms;
  in.storm_rate = outcome_.storms > 0
                      ? static_cast<double>(outcome_.storms) /
                            std::max(1, steps_observed_)
                      : 0.0;
  in.backoff_expect_s = backoff_expect_s_;
  in.redo_steps_per_storm = redo_steps_per_storm_;
  in.stay = stay_;
  in.move = move_;
  in.hysteresis = policy_.hysteresis;
  in.deadline_s = policy_.deadline_s;
  in.migrate_budget_usd = policy_.migrate_budget_usd;
  return in;
}

obs::Json Controller::step_record(const char* type, int step,
                                  double virtual_time_s) const {
  obs::Json j = obs::Json::object();
  j.set("schema", kTrailSchema);
  j.set("type", type);
  j.set("run", policy_.run_label);
  j.set("attempt", attempt_);
  j.set("platform", platform_);
  j.set("ranks", ranks_);
  j.set("step", step);
  j.set("virtual_time_s", virtual_time_s);
  return j;
}

midrun::Verdict Controller::observe_step(const midrun::Step& step) {
  if (!policy_.enabled) return {};
  step_cost_usd_[static_cast<std::size_t>(step.index)] = step.cost_usd;
  drift_.observe(step.seconds);
  elapsed_attempt_s_ += step.seconds;
  spent_attempt_usd_ += step.cost_usd;
  ++steps_observed_;
  const int done = step.index + 1;
  if (done % policy_.sample_every != 0) {
    return {};
  }
  if (done >= steps_total_) {
    return {};  // nothing left to re-broker
  }
  ++outcome_.samples;
  obs::Json sample = step_record("sample", step.index, elapsed_s());
  sample.set("step_s", step.seconds);
  sample.set("drift", drift_.drift());
  sample.set("storm_rate", make_inputs(done).storm_rate);
  append_record(sample.dump());

  const AdviseInputs in = make_inputs(done);
  Advice a = advise(in);
  ++outcome_.decisions;
  migration_due_ = a.migrate && !migration_suppressed_ &&
                   outcome_.migrations < policy_.max_migrations;
  if (a.migrate && !migration_due_) {
    a.reason = migration_suppressed_ ? "fallback submission failed earlier"
                                     : "migration allowance exhausted";
  }
  obs::Json decision = step_record("decision", step.index, elapsed_s());
  decision.set("action", migration_due_ ? "migrate" : "stay");
  decision.set("stay_finish_s", a.stay_finish_s);
  decision.set("move_finish_s", a.move_finish_s);
  decision.set("stay_cost_usd", a.stay_cost_usd);
  decision.set("move_cost_usd", a.move_cost_usd);
  decision.set("reason", a.reason);
  append_record(decision.dump());
  if (!migration_due_) return {};
  return {midrun::Action::kStop, "migration_checkpoint", "rebroker"};
}

std::optional<midrun::Move> Controller::on_stop(double elapsed_s,
                                                int checkpoint_step) {
  if (!std::exchange(migration_due_, false)) return std::nullopt;
  // The real submission to the fallback, on its own hashed stream: replays
  // of the same seed see the same queue wait at any --jobs.
  const platform::PlatformSpec& target =
      platform::platform_by_name(policy_.fallback_platform);
  Rng rng(hash_mix(
      hash_combine(seed_, static_cast<std::uint64_t>(outcome_.migrations))));
  const sched::JobOutcome moved = sched::make_scheduler(target)->submit(
      {move_.ranks, /*estimated_runtime_s=*/3600.0}, rng);
  // The trail stamps the verdict's clock; the job clock then takes the
  // attempt's whole virtual duration, billed where it ran.
  if (!moved.launched) {
    // The fallback would not take the job; resume from the checkpoint on
    // the platform we never left.
    record_migration_failed(moved.failure_reason);
    charge(elapsed_s);
    return midrun::Move{};
  }
  record_migration(checkpoint_step, target.name, moved.wait_s);
  charge(elapsed_s);
  elapsed_base_s_ += moved.wait_s;
  obs::trace_instant("migration", "rebroker", elapsed_base_s_, "to_ranks",
                     static_cast<double>(move_.ranks));
  return midrun::Move{{}, target.name, move_.ranks};
}

void Controller::on_fault(const midrun::Fault& fault) {
  if (fault.storm) {
    record_storm(fault.step, elapsed_base_s_ + fault.dead_s);
  }
  elapsed_base_s_ += fault.dead_s + fault.retry_delay_s;
  spent_base_usd_ += fault.dead_cost_usd;
}

void Controller::charge(double seconds) {
  elapsed_base_s_ += seconds;
  spent_base_usd_ +=
      platform::platform_by_name(platform_).cost_usd(ranks_, seconds);
}

double Controller::cost_per_iteration_usd(double single_platform_usd) const {
  if (outcome_.migrations == 0) return single_platform_usd;
  double total = 0.0;
  for (const double c : step_cost_usd_) {
    total += c;
  }
  return total / steps_total_;
}

void Controller::record_storm(int step, double virtual_time_s) {
  ++outcome_.storms;
  if (!policy_.enabled) {
    return;
  }
  append_record(step_record("storm", step, virtual_time_s).dump());
}

void Controller::record_migration(int checkpoint_step,
                                  const std::string& to_platform,
                                  double queue_wait_s) {
  ++outcome_.migrations;
  outcome_.migration_wait_s += queue_wait_s;
  outcome_.migration_cost_usd +=
      std::max(0, steps_total_ - checkpoint_step) * move_.cost_per_step_usd;
  obs::Json j = obs::Json::object();
  j.set("schema", kTrailSchema);
  j.set("type", "migration");
  j.set("run", policy_.run_label);
  j.set("attempt", attempt_);
  j.set("from_platform", platform_);
  j.set("to_platform", to_platform);
  j.set("from_ranks", ranks_);
  j.set("to_ranks", move_.ranks);
  j.set("checkpoint_step", checkpoint_step);
  j.set("queue_wait_s", queue_wait_s);
  j.set("virtual_time_s", elapsed_s() + queue_wait_s);
  append_record(j.dump());
}

void Controller::record_migration_failed(const std::string& reason) {
  migration_suppressed_ = true;
  obs::Json j = step_record("decision", -1, elapsed_s());
  j.set("action", "stay");
  j.set("stay_finish_s", 0.0);
  j.set("move_finish_s", 0.0);
  j.set("stay_cost_usd", 0.0);
  j.set("move_cost_usd", 0.0);
  j.set("reason", "fallback submission failed: " + reason);
  append_record(j.dump());
}

}  // namespace hetero::rebroker
