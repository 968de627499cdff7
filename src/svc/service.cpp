#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "broker/candidates.hpp"
#include "broker/objectives.hpp"
#include "broker/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rebroker/controller.hpp"
#include "resil/recovery.hpp"
#include "support/error.hpp"
#include "svc/result_codec.hpp"

namespace hetero::svc {

namespace {

/// Request-level cache prefix; experiment results use MemoResultStore's
/// own `exp|` prefix in the same log.
const std::string kRequestPrefix = "req|";

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& payload) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < payload.size()) {
    const std::size_t end = payload.find('\n', start);
    lines.push_back(payload.substr(start, end - start));
    if (end == std::string::npos) {
      break;
    }
    start = end + 1;
  }
  return lines;
}

}  // namespace

Service::Service(ServiceOptions options) : options_(options) {
  store_ = std::make_unique<MemoStore>(options_.store_path);
  experiment_memo_ = std::make_unique<MemoResultStore>(*store_);
  core::CampaignEngineOptions engine_options;
  engine_options.jobs = options_.jobs;
  engine_options.result_store = experiment_memo_.get();
  engine_ = std::make_unique<core::CampaignEngine>(options_.seed,
                                                   engine_options);
  broker_ = std::make_unique<broker::Broker>(*engine_);
}

Service::~Service() = default;

double Service::request_cost(const SvcRequest& request) const {
  // The engine weighs a modeled experiment as 1 simulated thread; a
  // request prices one modeled experiment (or campaign simulation) per
  // candidate, so its weight is the candidate count. Computed from the
  // request alone: warm and cold paths charge identically.
  if (request.kind == SvcRequest::Kind::kRebroker) {
    // A rebroker advisory prices exactly two candidates: stay and move.
    return 2.0;
  }
  return static_cast<double>(
      broker::enumerate_candidates(request.job).size());
}

BudgetVerdict Service::admit(const SvcRequest& request) {
  BudgetVerdict verdict;
  if (options_.budget_capacity <= 0.0) {
    return verdict;
  }
  verdict.need_tokens = request_cost(request);
  std::lock_guard<std::mutex> lock(budget_mutex_);
  auto [it, inserted] =
      budgets_.emplace(request.client, options_.budget_capacity);
  if (!inserted) {
    // Refill on every observed request, throttled ones included: the
    // deterministic stand-in for wall-clock refill. Crediting only
    // admitted requests would permanently starve a client whose request
    // costs more than one refill (the bucket could never grow to
    // `need`); the price is that retries themselves earn tokens, which
    // docs/service.md states explicitly.
    it->second = std::min(options_.budget_capacity,
                          it->second + options_.budget_refill);
  }
  verdict.have_tokens = it->second;
  if (it->second < verdict.need_tokens) {
    verdict.admitted = false;
    obs::metrics().counter("svc.throttled").increment();
    return verdict;
  }
  it->second -= verdict.need_tokens;
  return verdict;
}

std::vector<std::string> Service::answer_rebroker(const SvcRequest& request) {
  const RebrokerQuery& rb = request.rb;
  const int left = rb.steps - rb.done;
  broker::Predictor predictor(*engine_);
  broker::JobRequest job = request.job;
  job.iterations = rb.steps;

  // Stay: the platform the campaign already runs on, at the observed pace.
  broker::Candidate stay_c;
  stay_c.platform = rb.platform;
  stay_c.ranks = request.job.ranks;
  stay_c.cells_per_rank_axis = request.job.cells_per_rank_axis;
  broker::ResumeState stay_rs;
  stay_rs.iterations_total = rb.steps;
  stay_rs.iterations_done = rb.done;
  stay_rs.observed_seconds_per_iteration = rb.observed_s;
  stay_rs.same_platform = true;
  const broker::Prediction stay_p =
      predictor.predict_resumed(stay_c, job, stay_rs);

  // Move: the fallback, from a cold submission.
  const int resolved =
      rb.target_ranks > 0
          ? rb.target_ranks
          : rebroker::largest_cubic_ranks(rb.fallback, request.job.ranks);
  broker::Candidate move_c = stay_c;
  move_c.platform = rb.fallback;
  move_c.ranks = std::max(1, resolved);
  broker::ResumeState move_rs;
  move_rs.iterations_total = rb.steps;
  move_rs.iterations_done = rb.done;
  const broker::Prediction move_p =
      predictor.predict_resumed(move_c, job, move_rs);

  // Both quotes already carry their drift/queue terms, so the verdict sees
  // observed_step_s = 0 (no double scaling) and elapsed = spent = 0: the
  // projections it returns are for the remaining work, from now.
  rebroker::AdviseInputs in;
  in.steps_total = rb.steps;
  in.steps_done = rb.done;
  in.storms_seen = rb.storms;
  in.storm_rate = rb.storms > 0 ? static_cast<double>(rb.storms) /
                                      std::max(1, rb.done)
                                : 0.0;
  in.backoff_expect_s = resil::RecoveryPolicy{}.backoff_base_s;
  in.redo_steps_per_storm = 1;
  in.stay.platform = rb.platform;
  in.stay.ranks = stay_c.ranks;
  in.stay.can_launch = true;
  in.stay.seconds_per_step = stay_p.seconds_per_iteration;
  in.stay.cost_per_step_usd = stay_p.launched ? stay_p.cost_usd / left : 0.0;
  in.move.platform = rb.fallback;
  in.move.ranks = move_c.ranks;
  in.move.can_launch = resolved >= 1 && move_p.launched;
  in.move.seconds_per_step = move_p.seconds_per_iteration;
  in.move.cost_per_step_usd = move_p.launched ? move_p.cost_usd / left : 0.0;
  in.move.queue_wait_s = move_p.queue_wait_s;
  in.hysteresis = rb.hysteresis;
  in.deadline_s = rb.deadline_s;
  in.migrate_budget_usd = rb.migrate_budget_usd;
  const rebroker::Advice advice = rebroker::advise(in);

  RebrokerAnswer answer;
  answer.migrate = advice.migrate;
  answer.target = rb.fallback;
  answer.target_ranks = move_c.ranks;
  answer.stay_finish_s = advice.stay_finish_s;
  answer.move_finish_s = advice.move_finish_s;
  answer.stay_cost_usd = advice.stay_cost_usd;
  answer.move_cost_usd = advice.move_cost_usd;
  answer.reason = advice.reason;
  return render_rebroker(answer);
}

std::vector<std::string> Service::process(const SvcRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  const std::string key =
      kRequestPrefix + request_cache_key(request, options_.seed);
  const std::string payload = store_->fetch_or_compute(key, [&] {
    obs::trace_instant("svc_compute", "svc", 0.0, "candidates",
                       request_cost(request));
    if (request.kind == SvcRequest::Kind::kRebroker) {
      return join_lines(answer_rebroker(request));
    }
    const auto objective = broker::objective_by_name(request.objective);
    const auto recommendation = broker_->recommend(request.job, objective);
    return join_lines(render_response(request, recommendation));
  });
  std::vector<std::string> lines = split_lines(payload);
  for (auto& line : lines) {
    line = finalize_line(line, request.id);
  }
  obs::metrics().counter("svc.requests").increment();
  obs::metrics()
      .histogram("svc.request_latency_s")
      .observe(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count());
  return lines;
}

Answer Service::answer(const std::string& line) {
  std::int64_t id = -1;
  try {
    const SvcRequest request = parse_request_line(line);
    id = request.id;
    switch (request.kind) {
      case SvcRequest::Kind::kPing:
        obs::metrics().counter("svc.pings").increment();
        return {Answer::Kind::kPong, {render_pong(id)}};
      case SvcRequest::Kind::kShutdown:
        return {Answer::Kind::kShutdown, {}};
      case SvcRequest::Kind::kJob:
      case SvcRequest::Kind::kRebroker:
        break;
    }
    const BudgetVerdict verdict = admit(request);
    if (!verdict.admitted) {
      return {Answer::Kind::kThrottled,
              {render_throttled(id, request.client, verdict.need_tokens,
                                verdict.have_tokens)}};
    }
    return {Answer::Kind::kDecision, process(request)};
  } catch (const std::exception& e) {
    // A daemon answers every line: bad_alloc and system_error included.
    obs::metrics().counter("svc.errors").increment();
    return {Answer::Kind::kError, {render_error(id, e.what())}};
  }
}

std::vector<std::string> Service::process_line(const std::string& line) {
  return answer(line).lines;
}

}  // namespace hetero::svc
