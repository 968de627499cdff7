#include "svc/protocol.hpp"

#include <cmath>

#include "broker/objectives.hpp"
#include "platform/platform_spec.hpp"
#include "support/byte_codec.hpp"
#include "support/error.hpp"

namespace hetero::svc {

namespace {

void append_opt(std::string& key, const std::optional<double>& v) {
  if (v.has_value()) {
    support::append_key_field(key, *v);
  } else {
    key += "-|";
  }
}

std::int64_t require_int(const obs::Json& v, const std::string& name) {
  HETERO_REQUIRE(v.is_number(), "svc request: '" + name + "' must be a number");
  const double d = v.as_number();
  HETERO_REQUIRE(d == std::floor(d), "svc request: '" + name +
                                         "' must be an integer");
  return static_cast<std::int64_t>(d);
}

double require_number(const obs::Json& v, const std::string& name) {
  HETERO_REQUIRE(v.is_number(), "svc request: '" + name + "' must be a number");
  return v.as_number();
}

bool require_bool(const obs::Json& v, const std::string& name) {
  HETERO_REQUIRE(v.is_bool(), "svc request: '" + name + "' must be a boolean");
  return v.as_bool();
}

const std::string& require_string(const obs::Json& v,
                                  const std::string& name) {
  HETERO_REQUIRE(v.is_string(), "svc request: '" + name + "' must be a string");
  return v.as_string();
}

obs::Json prediction_fields(const broker::Prediction& p) {
  obs::Json j = obs::Json::object();
  j.set("winner", p.candidate.label());
  j.set("ranks", p.candidate.ranks);
  j.set("hosts", p.hosts);
  j.set("seconds_per_iteration", p.seconds_per_iteration);
  j.set("run_s", p.run_s);
  j.set("queue_wait_s", p.queue_wait_s);
  j.set("provisioning_hours", p.provisioning_hours);
  j.set("effective_s", p.effective_s);
  j.set("cost_usd", p.cost_usd);
  j.set("risk_usd", p.risk_usd);
  return j;
}

/// Every response line starts with the same stamp; the id slot holds the
/// substitution token for cacheable records or the final number otherwise.
obs::Json stamp(const char* type) {
  obs::Json j = obs::Json::object();
  j.set("schema", kSvcSchema);
  j.set("type", type);
  j.set("id", "@ID@");
  return j;
}

obs::Json stamp_final(const char* type, std::int64_t id) {
  obs::Json j = obs::Json::object();
  j.set("schema", kSvcSchema);
  j.set("type", type);
  if (id < 0) {
    j.set("id", nullptr);
  } else {
    j.set("id", id);
  }
  return j;
}

}  // namespace

SvcRequest parse_request(const obs::Json& record) {
  HETERO_REQUIRE(record.is_object(), "svc request: record must be an object");
  SvcRequest req;
  bool saw_id = false;
  for (const auto& [key, value] : record.as_object()) {
    if (key == "schema") {
      HETERO_REQUIRE(require_string(value, key) == kSvcSchema,
                     "svc request: schema must be '" +
                         std::string(kSvcSchema) + "'");
    } else if (key == "type") {
      const std::string& type = require_string(value, key);
      if (type == "request") {
        req.kind = SvcRequest::Kind::kJob;
      } else if (type == "ping") {
        req.kind = SvcRequest::Kind::kPing;
      } else if (type == "shutdown") {
        req.kind = SvcRequest::Kind::kShutdown;
      } else if (type == "rebroker") {
        req.kind = SvcRequest::Kind::kRebroker;
      } else {
        HETERO_REQUIRE(false, "svc request: unknown type '" + type + "'");
      }
    } else if (key == "id") {
      req.id = require_int(value, key);
      HETERO_REQUIRE(req.id >= 0, "svc request: id must be >= 0");
      saw_id = true;
    } else if (key == "client") {
      req.client = require_string(value, key);
      HETERO_REQUIRE(!req.client.empty(),
                     "svc request: client must be non-empty");
    } else if (key == "app") {
      req.job.app = perf::app_by_name(require_string(value, key));
    } else if (key == "elements") {
      req.job.total_elements = require_int(value, key);
    } else if (key == "ranks") {
      req.job.ranks = static_cast<int>(require_int(value, key));
    } else if (key == "cells") {
      req.job.cells_per_rank_axis = static_cast<int>(require_int(value, key));
    } else if (key == "iterations") {
      req.job.iterations = static_cast<int>(require_int(value, key));
    } else if (key == "deadline_h") {
      req.job.deadline_h = require_number(value, key);
    } else if (key == "budget_usd") {
      req.job.budget_usd = require_number(value, key);
    } else if (key == "risk") {
      req.job.risk_tolerance = require_number(value, key);
    } else if (key == "risk_budget_usd") {
      req.job.risk_budget_usd = require_number(value, key);
    } else if (key == "ported") {
      req.job.include_provisioning = !require_bool(value, key);
    } else if (key == "objective") {
      req.objective = require_string(value, key);
    } else if (key == "frontier") {
      req.want_frontier = require_bool(value, key);
    } else if (key == "top") {
      req.top = static_cast<int>(require_int(value, key));
      HETERO_REQUIRE(req.top >= 0, "svc request: top must be >= 0");
    } else if (key == "platform") {
      req.rb.platform = require_string(value, key);
    } else if (key == "fallback") {
      req.rb.fallback = require_string(value, key);
    } else if (key == "steps") {
      req.rb.steps = static_cast<int>(require_int(value, key));
    } else if (key == "done") {
      req.rb.done = static_cast<int>(require_int(value, key));
    } else if (key == "observed_s") {
      req.rb.observed_s = require_number(value, key);
      HETERO_REQUIRE(req.rb.observed_s >= 0.0,
                     "svc request: observed_s must be >= 0");
    } else if (key == "storms") {
      req.rb.storms = static_cast<int>(require_int(value, key));
      HETERO_REQUIRE(req.rb.storms >= 0,
                     "svc request: storms must be >= 0");
    } else if (key == "hysteresis") {
      req.rb.hysteresis = require_number(value, key);
      HETERO_REQUIRE(req.rb.hysteresis >= 0.0,
                     "svc request: hysteresis must be >= 0");
    } else if (key == "deadline_s") {
      req.rb.deadline_s = require_number(value, key);
      HETERO_REQUIRE(req.rb.deadline_s >= 0.0,
                     "svc request: deadline_s must be >= 0");
    } else if (key == "migrate_budget_usd") {
      req.rb.migrate_budget_usd = require_number(value, key);
      HETERO_REQUIRE(req.rb.migrate_budget_usd >= 0.0,
                     "svc request: migrate_budget_usd must be >= 0");
    } else if (key == "target_ranks") {
      req.rb.target_ranks = static_cast<int>(require_int(value, key));
      HETERO_REQUIRE(req.rb.target_ranks >= 0,
                     "svc request: target_ranks must be >= 0");
    } else {
      // Strict like the CLI's unknown-flag rejection: a typo must fail
      // loudly, not silently fall back to a default.
      HETERO_REQUIRE(false, "svc request: unknown key '" + key + "'");
    }
  }
  HETERO_REQUIRE(saw_id, "svc request: missing required key 'id'");
  if (req.kind == SvcRequest::Kind::kJob) {
    // Validates the objective name at admission time so a bad request is
    // answered with an error record, never a worker-side exception.
    broker::objective_by_name(req.objective);
  }
  if (req.kind == SvcRequest::Kind::kRebroker) {
    HETERO_REQUIRE(req.rb.steps >= 1,
                   "svc request: rebroker needs steps >= 1");
    HETERO_REQUIRE(req.rb.done >= 0 && req.rb.done < req.rb.steps,
                   "svc request: rebroker needs 0 <= done < steps");
    HETERO_REQUIRE(req.job.ranks >= 1,
                   "svc request: rebroker needs ranks >= 1");
    // Unknown platform names become error records at admission time, never
    // a worker-side exception.
    platform::platform_by_name(req.rb.platform);
    platform::platform_by_name(req.rb.fallback);
  }
  return req;
}

SvcRequest parse_request_line(const std::string& line) {
  return parse_request(obs::Json::parse(line));
}

std::string request_cache_key(const SvcRequest& request, std::uint64_t seed) {
  // Same key text as the engine's experiment_cache_key: doubles go in
  // bit-exactly, so 0.02 and 0.020000001 never alias.
  using support::append_key_field;
  std::string key;
  key.reserve(128);
  key += "req-v1|";
  if (request.kind == SvcRequest::Kind::kRebroker) {
    // Own sub-namespace: job-request keys stay byte-for-byte what they
    // were, so existing memo stores keep warm-starting.
    key += "rb|";
    append_key_field(key, request.job.app);
    append_key_field(key, request.job.ranks);
    append_key_field(key, request.job.cells_per_rank_axis);
    append_key_field(key, request.rb.platform);
    append_key_field(key, request.rb.fallback);
    append_key_field(key, request.rb.steps);
    append_key_field(key, request.rb.done);
    append_key_field(key, request.rb.observed_s);
    append_key_field(key, request.rb.storms);
    append_key_field(key, request.rb.hysteresis);
    append_key_field(key, request.rb.deadline_s);
    append_key_field(key, request.rb.migrate_budget_usd);
    append_key_field(key, request.rb.target_ranks);
    key += std::to_string(seed);
    return key;
  }
  append_key_field(key, request.job.app);
  append_key_field(key, request.job.total_elements);
  append_key_field(key, request.job.ranks);
  append_key_field(key, request.job.cells_per_rank_axis);
  append_key_field(key, request.job.iterations);
  append_opt(key, request.job.deadline_h);
  append_opt(key, request.job.budget_usd);
  append_key_field(key, request.job.risk_tolerance);
  append_opt(key, request.job.risk_budget_usd);
  append_key_field(key, request.job.include_provisioning);
  append_key_field(key, request.objective);
  append_key_field(key, request.want_frontier);
  append_key_field(key, request.top);
  key += std::to_string(seed);
  return key;
}

std::vector<std::string> render_response(
    const SvcRequest& request, const broker::Recommendation& rec) {
  std::vector<std::string> lines;
  obs::Json decision = stamp("decision");
  decision.set("ok", rec.has_winner());
  decision.set("objective", rec.objective_name);
  decision.set("candidates",
               static_cast<std::uint64_t>(rec.ranked.size() +
                                          rec.rejected.size()));
  decision.set("feasible", static_cast<std::uint64_t>(rec.ranked.size()));
  decision.set("rejected", static_cast<std::uint64_t>(rec.rejected.size()));
  decision.set("frontier", static_cast<std::uint64_t>(rec.frontier.size()));
  if (rec.has_winner()) {
    const auto& best = rec.ranked.front();
    const obs::Json fields = prediction_fields(best.prediction);
    for (const auto& [k, v] : fields.as_object()) {
      decision.set(k, v);
    }
    decision.set("score", best.score);
  } else {
    decision.set("reason",
                 rec.rejected.empty()
                     ? "no deployment candidate fits this problem"
                     : "no candidate satisfies the constraints");
  }
  lines.push_back(decision.dump());

  const std::size_t alternates =
      request.top > 0
          ? std::min<std::size_t>(static_cast<std::size_t>(request.top),
                                  rec.ranked.size())
          : 0;
  for (std::size_t i = 1; i < alternates; ++i) {
    const auto& rc = rec.ranked[i];
    obs::Json ranked = stamp("ranked");
    ranked.set("seq", static_cast<std::uint64_t>(i));
    ranked.set("candidate", rc.prediction.candidate.label());
    ranked.set("effective_s", rc.prediction.effective_s);
    ranked.set("cost_usd", rc.prediction.cost_usd);
    ranked.set("score", rc.score);
    lines.push_back(ranked.dump());
  }

  if (request.want_frontier) {
    std::size_t seq = 0;
    for (const auto& point : rec.frontier) {
      obs::Json frontier = stamp("frontier");
      frontier.set("seq", static_cast<std::uint64_t>(seq++));
      frontier.set("candidate",
                   rec.ranked[point.index].prediction.candidate.label());
      frontier.set("time_s", point.time_s);
      frontier.set("cost_usd", point.cost_usd);
      lines.push_back(frontier.dump());
    }
  }
  return lines;
}

std::vector<std::string> render_rebroker(const RebrokerAnswer& answer) {
  obs::Json j = stamp("rebroker");
  j.set("action", answer.migrate ? "migrate" : "stay");
  j.set("target", answer.target);
  j.set("target_ranks", answer.target_ranks);
  j.set("stay_finish_s", answer.stay_finish_s);
  j.set("move_finish_s", answer.move_finish_s);
  j.set("stay_cost_usd", answer.stay_cost_usd);
  j.set("move_cost_usd", answer.move_cost_usd);
  j.set("reason", answer.reason);
  return {j.dump()};
}

std::string finalize_line(const std::string& line, std::int64_t id) {
  const std::size_t pos = line.find(kIdToken);
  HETERO_REQUIRE(pos != std::string::npos,
                 "svc response: rendered line carries no id token");
  std::string out = line;
  out.replace(pos, std::string(kIdToken).size(), std::to_string(id));
  return out;
}

std::string render_error(std::int64_t id, const std::string& reason) {
  obs::Json j = stamp_final("error", id);
  j.set("reason", reason);
  return j.dump();
}

std::string render_busy(std::int64_t id, std::size_t queue_depth) {
  obs::Json j = stamp_final("busy", id);
  j.set("queue_depth", static_cast<std::uint64_t>(queue_depth));
  return j.dump();
}

std::string render_throttled(std::int64_t id, const std::string& client,
                             double need_tokens, double have_tokens) {
  obs::Json j = stamp_final("throttled", id);
  j.set("client", client);
  j.set("reason", "client budget exhausted");
  j.set("need_tokens", need_tokens);
  j.set("have_tokens", have_tokens);
  return j.dump();
}

std::string render_pong(std::int64_t id) {
  return stamp_final("pong", id).dump();
}

std::string render_bye(std::uint64_t served) {
  obs::Json j = obs::Json::object();
  j.set("schema", kSvcSchema);
  j.set("type", "bye");
  j.set("served", served);
  return j.dump();
}

}  // namespace hetero::svc
