#pragma once

/// \file service.hpp
/// The advisory service core, transport-independent: one Service owns the
/// persistent memo store, a store-backed CampaignEngine, and the broker
/// pipeline, and turns parsed requests into rendered response lines.
///
/// Caching is two-level and content-addressed, both levels in one
/// MemoStore log:
///   * "req|..." entries memoize whole response payloads keyed on the full
///     request descriptor + seed — a repeated request is answered without
///     touching the broker at all (the warm path the throughput bench
///     gates at >= 5x);
///   * "exp|..." entries are the campaign engine's memoization spilled to
///     disk via core::ExperimentResultStore — a *new* request after a
///     restart still warm-starts from every experiment any earlier request
///     priced (incremental sweeps).
///
/// Admission control is the deterministic per-client token-bucket budget
/// check, priced in the engine's own simulated-thread units: a modeled
/// candidate prediction weighs 1, so one request costs its candidate
/// count. Buckets refill once per job request *observed* from that client
/// (throttled attempts included) — never per wall-clock second — so budget
/// verdicts replay identically across runs and a throttled client always
/// recovers after finitely many retries.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/broker.hpp"
#include "core/campaign_engine.hpp"
#include "svc/memo_store.hpp"
#include "svc/result_codec.hpp"
#include "svc/protocol.hpp"

namespace hetero::svc {

struct ServiceOptions {
  std::uint64_t seed = 42;
  /// Engine pool width for one recommendation (0 = --jobs resolution).
  int jobs = 1;
  /// Memo-store log path; empty = in-memory caching only (no warm start).
  std::string store_path;
  /// Token-bucket capacity per client, in simulated-thread units
  /// (candidate predictions). 0 = budgets disabled.
  double budget_capacity = 0.0;
  /// Tokens credited to a client's bucket per job request observed from
  /// that client, throttled attempts included (deterministic refill; no
  /// wall-clock involved).
  double budget_refill = 0.0;
};

struct BudgetVerdict {
  bool admitted = true;
  double need_tokens = 0.0;
  double have_tokens = 0.0;
};

/// One answered input line: the kind of record it was answered with, which
/// the transports tally, and the response lines (none for a shutdown).
struct Answer {
  /// kDecision also covers a rebroker advisory's "rebroker" record.
  enum class Kind { kDecision, kPong, kError, kThrottled, kShutdown };
  Kind kind = Kind::kDecision;
  std::vector<std::string> lines;
};

class Service {
 public:
  explicit Service(ServiceOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admission-side cost of a job request in simulated-thread units: the
  /// number of deployment candidates the broker will price. Deterministic
  /// in the request alone (warm and cold runs charge the same).
  double request_cost(const SvcRequest& request) const;

  /// Answers one raw input line, for every transport: parse, budget check,
  /// then the rendered payload from the request-level memo (computed and
  /// persisted on a miss, with in-flight dedup across concurrent callers)
  /// with the request's id filled in. Never throws: a malformed line, or a
  /// request that cannot be priced, is answered with an error record
  /// carrying the request's id (null when the line does not parse).
  /// Thread-safe.
  Answer answer(const std::string& line);

  /// answer(line).lines.
  std::vector<std::string> process_line(const std::string& line);

  MemoStore& store() { return *store_; }
  const core::CampaignEngine& engine() const { return *engine_; }
  std::uint64_t seed() const { return options_.seed; }

 private:
  /// Token-bucket check-and-charge for one job request, in arrival order.
  BudgetVerdict admit(const SvcRequest& request);

  /// Answers one admitted job or rebroker request (throws when the broker
  /// cannot price it).
  std::vector<std::string> process(const SvcRequest& request);

  /// Computes the rebroker advisory payload (cold path of process()).
  std::vector<std::string> answer_rebroker(const SvcRequest& request);

  ServiceOptions options_;
  std::unique_ptr<MemoStore> store_;
  std::unique_ptr<MemoResultStore> experiment_memo_;
  std::unique_ptr<core::CampaignEngine> engine_;
  std::unique_ptr<broker::Broker> broker_;

  std::mutex budget_mutex_;
  std::unordered_map<std::string, double> budgets_;
};

}  // namespace hetero::svc
