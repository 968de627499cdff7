#pragma once

/// \file protocol.hpp
/// The `heterolab-svc-v1` wire protocol: line-delimited JSON, one record
/// per line, in both directions. A client streams request records
///
///   {"schema":"heterolab-svc-v1","type":"request","id":1,"app":"rd",
///    "elements":1000000,"iterations":100,"deadline_h":24,"budget_usd":50,
///    "objective":"effective"}
///
/// and receives, per request, one "decision" record (the winner and its
/// prediction, or an explained infeasibility) followed by one "frontier"
/// record per point of the time/cost Pareto frontier — the response payload
/// "Seeing Shapes in Clouds" argues for: the whole trade-off curve, not
/// just a pick. Client budgets answer with "throttled" records; malformed
/// lines and requests that cannot be priced with "error"; "ping" with
/// "pong"; end of stream (or a "shutdown" request) with a final "bye"
/// record. Response ids are monotone in request order
/// (tools/check_bench.py --schema svc validates exactly this contract).
///
/// The same parser backs the one-shot batch path (`heterolab broker
/// --requests FILE.jsonl`), so the daemon and the CLI share one request
/// schema. Full reference: docs/service.md.

#include <cstdint>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "broker/job_request.hpp"
#include "obs/json.hpp"

namespace hetero::svc {

/// Version tag stamped on (and required of) every record.
inline constexpr const char* kSvcSchema = "heterolab-svc-v1";

/// Placeholder the response renderer emits in place of the numeric id.
/// Rendered payloads are id-independent — that is what makes them
/// content-addressable in the memo store; finalize_line() substitutes the
/// real id at emission time.
inline constexpr const char* kIdToken = "\"@ID@\"";

/// A `rebroker` advisory: where does a partially completed campaign stand,
/// and should it migrate? The daemon re-prices the remaining steps on the
/// current platform (at the observed pace) and on the fallback, and answers
/// with one "rebroker" record carrying the stay/move projections and the
/// hysteresis verdict — the same advise() kernel the in-process control
/// loop runs (docs/rebrokering.md).
struct RebrokerQuery {
  std::string platform = "ec2";  ///< where the campaign runs now
  std::string fallback = "puma"; ///< migration target to price
  int steps = 0;                 ///< total steps of the campaign
  int done = 0;                  ///< completed steps
  double observed_s = 0.0;       ///< live smoothed seconds per step (0 = model)
  int storms = 0;                ///< reclaim storms endured so far
  double hysteresis = 0.15;
  double deadline_s = 0.0;           ///< 0 = none
  double migrate_budget_usd = 0.0;   ///< 0 = unlimited
  int target_ranks = 0;              ///< 0 = auto (largest feasible cube)
};

struct SvcRequest {
  enum class Kind { kJob, kPing, kShutdown, kRebroker };
  Kind kind = Kind::kJob;
  /// Client-chosen correlation id; echoed on every response record.
  std::int64_t id = 0;
  /// Budget-accounting principal; requests without one share "anon".
  std::string client = "anon";

  broker::JobRequest job;
  std::string objective = "effective";
  /// Emit the frontier records (the decision record always counts them).
  bool want_frontier = true;

  /// Alternatives after the winner included in the decision record.
  int top = 0;

  /// kRebroker only: the mid-campaign state to re-price.
  RebrokerQuery rb;
};

/// Parses one request record. Strict: unknown keys, a missing/negative id,
/// a wrong schema tag, or an unknown objective all throw hetero::Error.
SvcRequest parse_request(const obs::Json& record);
SvcRequest parse_request_line(const std::string& line);

/// Canonical content address of a job request: every field that influences
/// the answer plus the engine seed, doubles encoded bit-exactly. Two
/// requests with the same key get byte-identical response payloads.
std::string request_cache_key(const SvcRequest& request, std::uint64_t seed);

/// Renders the response payload for a job request — one decision line plus
/// frontier lines — with kIdToken in place of the id (cacheable).
std::vector<std::string> render_response(const SvcRequest& request,
                                         const broker::Recommendation& rec);

/// The daemon's answer to a rebroker advisory (one "rebroker" record).
struct RebrokerAnswer {
  bool migrate = false;
  std::string target;
  int target_ranks = 0;
  double stay_finish_s = 0.0;
  double move_finish_s = 0.0;
  double stay_cost_usd = 0.0;
  double move_cost_usd = 0.0;
  std::string reason;
};

/// Renders the rebroker advisory record with kIdToken in place of the id
/// (cacheable through the same request-level memo as job decisions).
std::vector<std::string> render_rebroker(const RebrokerAnswer& answer);

/// Substitutes the numeric id for kIdToken in a rendered line.
std::string finalize_line(const std::string& line, std::int64_t id);

/// Non-cacheable records, rendered with their final id directly.
/// `id` < 0 serializes as null (a line too malformed to carry an id).
std::string render_error(std::int64_t id, const std::string& reason);
std::string render_throttled(std::int64_t id, const std::string& client,
                             double need_tokens, double have_tokens);
std::string render_pong(std::int64_t id);
std::string render_bye(std::uint64_t served);

}  // namespace hetero::svc
