#pragma once

/// \file campaign_engine.hpp
/// Parallel evaluation of experiment campaigns.
///
/// The paper's evaluation is a *campaign*: hundreds of
/// (app x platform x rank-count x EC2-config) experiments, each deterministic
/// and independent of the others. The CampaignEngine turns that independence
/// into throughput without giving up reproducibility:
///
///   * a thread pool, whose workers claim indices from one shared counter,
///     evaluates batches concurrently, with results reported in submission
///     order — output is byte-identical to a sequential sweep regardless of
///     completion order or job count;
///   * a memoization cache keyed on the full experiment descriptor plus the
///     runner seed computes repeated points once (the broker re-evaluating
///     objectives, fig4/fig6 sharing a sweep, ablations re-running their
///     baselines). Every experiment, from run() or run_batch(), in-process
///     or on an executor, goes through one claim -> compute -> settle ->
///     wait flow; the backends differ only in who computes the owned misses;
///   * a thread budget of max(jobs, hardware threads) caps *in-flight
///     simulated ranks*, not just jobs: a direct-mode experiment runs its
///     ranks as fibers on min(ranks, CPUs) host threads, so it weighs `ranks`
///     (an upper bound on its threads) against the budget while a modeled
///     experiment weighs 1. Experiments with trace/metrics side effects run
///     exclusively (the trace recorder installation is process-global).
///
/// One condition keeps the flow deadlock-free: computing an experiment never
/// calls back into the engine (ExperimentRunner::run does not). A caller
/// therefore settles every key it owns before it waits on any other, and
/// parallel_for never waits for another caller's batch: it runs its range
/// inline instead.
///
/// Instrumented with hetero::obs metrics (queue depth, cache hit/miss
/// counters, per-job latency histogram) and host-time trace instants per
/// batch.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace hetero::core {

/// Optional persistence hook for the memoization cache: the engine consults
/// it before computing a memoizable experiment and offers every freshly
/// computed result back. Implementations must be thread-safe; loads must
/// reproduce the saved result bit-exactly (svc::MemoStore adapts this onto
/// an append-only on-disk log, making repeated sweeps incremental across
/// process restarts).
class ExperimentResultStore {
 public:
  virtual ~ExperimentResultStore() = default;
  /// True and fills `out` when `key` is present.
  virtual bool load(const std::string& key, ExperimentResult& out) = 0;
  /// Offers a freshly computed result for persistence.
  virtual void save(const std::string& key, const ExperimentResult& result) = 0;
};

/// Outcome of one executor-run experiment: either a result or the message
/// of the exception the experiment body threw (an application error —
/// distinct from a *worker* failure, which the executor absorbs itself via
/// retry/quarantine and reports as a failed result).
struct ExecOutcome {
  ExperimentResult result;
  bool failed = false;
  std::string error;
};

/// Pluggable execution backend for experiment batches. When an executor is
/// installed the engine keeps its memoization/result-store layers but
/// delegates the actual computation of cache misses to the executor —
/// `proc::Supervisor` implements this over a supervised pool of forked
/// worker processes. Implementations must tolerate concurrent calls
/// (serialize internally) and must return outcomes in submission order.
class BatchExecutor {
 public:
  virtual ~BatchExecutor() = default;
  virtual std::vector<ExecOutcome> execute(
      const std::vector<Experiment>& batch) = 0;
};

struct CampaignEngineOptions {
  /// Concurrent jobs (pool width). 0 = resolve_jobs(0): the HETEROLAB_JOBS
  /// environment variable if set, else hardware concurrency. 1 = run
  /// everything inline on the calling thread (the sequential reference
  /// path — no pool threads are ever created).
  int jobs = 0;
  /// Persistent second level of the memoization cache; not owned, must
  /// outlive the engine. nullptr (the default) keeps memoization purely
  /// in-memory.
  ExperimentResultStore* result_store = nullptr;
  /// Multi-process execution backend; not owned, must outlive the engine.
  /// nullptr (the default) computes everything in-process on the thread
  /// pool. Experiments with trace/metrics side effects always run
  /// in-process (the recorder installation is process-global), and
  /// parallel_for fan-outs keep using the pool — `jobs` semantics are
  /// unchanged.
  BatchExecutor* executor = nullptr;
};

struct CampaignEngineStats {
  /// Experiments actually executed (cache misses + uncacheable runs).
  std::uint64_t jobs_run = 0;
  /// Experiments answered from the memoization cache.
  std::uint64_t cache_hits = 0;
  /// Experiments that populated the cache.
  std::uint64_t cache_misses = 0;
  /// Cache misses answered by the persistent result store (no compute).
  std::uint64_t store_hits = 0;
  /// parallel_for / run_batch invocations.
  std::uint64_t batches = 0;
  /// High-water mark of the in-flight simulated-thread weight.
  int peak_inflight_threads = 0;
};

/// Job-count resolution used by every `--jobs` consumer: an explicit
/// request wins, then a positive integer HETEROLAB_JOBS, then hardware
/// concurrency (at least 1).
int resolve_jobs(int requested);

class CampaignEngine {
 public:
  explicit CampaignEngine(std::uint64_t seed = 42,
                          CampaignEngineOptions options = {});
  ~CampaignEngine();

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Resolved pool width.
  int jobs() const { return jobs_; }
  /// In-flight simulated-thread cap: max(jobs, hardware threads). A single
  /// job heavier than the whole budget runs alone.
  int thread_budget() const { return budget_; }
  /// Seed of the underlying ExperimentRunner.
  std::uint64_t seed() const { return seed_; }

  /// Runs (or replays) one experiment: the run_batch flow over one
  /// experiment, not counted as a batch. Thread-safe; callable from inside
  /// parallel_for bodies.
  ExperimentResult run(const Experiment& experiment);

  /// Evaluates a batch concurrently; results[i] always corresponds to
  /// batch[i], independent of completion order. Keys are claimed at
  /// submission: the first submitter of a key, in this batch or in any
  /// concurrent call, computes it and the others wait on its entry.
  /// Experiments with trace/metrics output paths bypass the cache and run
  /// in this process, exclusively. The first failure (by submission index)
  /// is rethrown after the batch drains.
  std::vector<ExperimentResult> run_batch(const std::vector<Experiment>& batch);

  /// Generic deterministic fan-out: body(i) for i in [0, n), spread over
  /// the pool. Used for non-Experiment work such as campaign simulations
  /// and broker candidate prediction. Runs inline on the calling thread
  /// when jobs == 1, when n == 1, and while another range holds the pool
  /// (another caller's, or the one a nested call runs inside) — it never
  /// waits for another batch. The lowest-index failure is rethrown once
  /// every index has run (inline: at the first failure).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Snapshot of the engine counters.
  CampaignEngineStats stats() const;

 private:
  class Pool;

  /// The one memo flow behind run() and run_batch().
  std::vector<ExperimentResult> evaluate(std::span<const Experiment> batch);
  /// parallel_for without the batch counter and trace instants.
  void fan_out(std::size_t n, const std::function<void(std::size_t)>& body);
  ExperimentResult execute_uncached(const Experiment& experiment);
  int experiment_weight(const Experiment& experiment) const;

  std::uint64_t seed_;
  CampaignEngineOptions options_;
  int jobs_ = 1;
  int budget_ = 1;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Canonical cache key: every field of visit_fields(Experiment) in its
/// order, as support::append_key_field text, then the runner seed.
/// Exposed for tests.
std::string experiment_cache_key(const Experiment& experiment,
                                 std::uint64_t runner_seed);

}  // namespace hetero::core
