// CampaignEngine: parallel campaign evaluation must be indistinguishable
// from the sequential sweep (determinism, submission-order results),
// memoization must account its hits the same way on the pool and on an
// executor, the thread budget must bound in-flight simulated threads,
// failures must propagate with the lowest index, and no caller may wait
// for another caller's batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codec_fixtures.hpp"
#include "core/campaign_engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "svc/result_codec.hpp"

namespace hetero::core {
namespace {

std::vector<Experiment> small_campaign() {
  std::vector<Experiment> batch;
  for (const char* platform : {"puma", "ellipse", "lagrange", "ec2"}) {
    for (int ranks : {1, 8, 27, 64, 125, 343, 1000}) {
      Experiment e;
      e.platform = platform;
      e.ranks = ranks;
      batch.push_back(e);
    }
  }
  Experiment mix;
  mix.platform = "ec2";
  mix.ranks = 1000;
  mix.ec2_spot_mix = true;
  mix.ec2_placement_groups = 4;
  batch.push_back(mix);
  return batch;
}

std::string results_fingerprint(const std::vector<ExperimentResult>& rs) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& r : rs) {
    out << r.launched << "|" << r.failure_reason << "|"
        << r.iteration.total_s << "|" << r.cost_per_iteration_usd << "|"
        << r.queue_wait_s << "|" << r.hosts << "|" << r.spot_hosts << "\n";
  }
  return out.str();
}

TEST(CampaignEngine, ResolveJobsPrefersExplicitRequest) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_GE(resolve_jobs(0), 1);  // env or hardware, never less than one
}

TEST(CampaignEngine, ParallelBatchMatchesSequentialByteForByte) {
  const auto batch = small_campaign();
  CampaignEngine sequential(42, {.jobs = 1});
  CampaignEngine parallel(42, {.jobs = 8});
  EXPECT_EQ(sequential.jobs(), 1);
  EXPECT_EQ(parallel.jobs(), 8);
  const auto rs = sequential.run_batch(batch);
  const auto rp = parallel.run_batch(batch);
  ASSERT_EQ(rs.size(), batch.size());
  ASSERT_EQ(rp.size(), batch.size());
  EXPECT_EQ(results_fingerprint(rs), results_fingerprint(rp));
}

TEST(CampaignEngine, GeneratedTablesAreIdenticalAtAnyJobsLevel) {
  const auto procs = paper_process_counts();
  CampaignEngine sequential(42, {.jobs = 1});
  CampaignEngine parallel(42, {.jobs = 8});
  const std::string text_seq =
      weak_scaling_figure(sequential, perf::AppKind::kReactionDiffusion,
                          procs)
          .to_text();
  const std::string text_par =
      weak_scaling_figure(parallel, perf::AppKind::kReactionDiffusion, procs)
          .to_text();
  EXPECT_EQ(text_seq, text_par);

  const std::string cost_seq =
      cost_figure(sequential, perf::AppKind::kNavierStokes, procs).to_text();
  const std::string cost_par =
      cost_figure(parallel, perf::AppKind::kNavierStokes, procs).to_text();
  EXPECT_EQ(cost_seq, cost_par);
}

TEST(CampaignEngine, MemoizationAccountsHitsAndReplaysResults) {
  CampaignEngine engine(42, {.jobs = 2});
  Experiment e;
  e.platform = "puma";
  e.ranks = 27;

  const auto first = engine.run(e);
  auto stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.jobs_run, 1u);

  const auto second = engine.run(e);
  stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.jobs_run, 1u);  // nothing re-executed
  EXPECT_DOUBLE_EQ(first.iteration.total_s, second.iteration.total_s);
  EXPECT_DOUBLE_EQ(first.cost_per_iteration_usd,
                   second.cost_per_iteration_usd);

  // A batch of duplicates computes the descriptor once.
  const std::vector<Experiment> dupes(6, e);
  const auto results = engine.run_batch(dupes);
  stats = engine.stats();
  EXPECT_EQ(stats.jobs_run, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  for (const auto& r : results) {
    EXPECT_DOUBLE_EQ(r.iteration.total_s, first.iteration.total_s);
  }
}

TEST(CampaignEngine, CacheKeySeparatesSeedsAndDescriptors) {
  Experiment a;
  a.platform = "puma";
  a.ranks = 27;
  Experiment b = a;
  b.ranks = 64;
  EXPECT_NE(experiment_cache_key(a, 42), experiment_cache_key(b, 42));
  EXPECT_NE(experiment_cache_key(a, 42), experiment_cache_key(a, 43));
  EXPECT_EQ(experiment_cache_key(a, 42), experiment_cache_key(a, 42));
  Experiment spot = a;
  spot.platform = "ec2";
  spot.ranks = 1000;
  Experiment ondemand = spot;
  spot.ec2_spot_mix = true;
  EXPECT_NE(experiment_cache_key(spot, 42),
            experiment_cache_key(ondemand, 42));
}

TEST(CampaignEngine, CacheKeySeparatesFaultAndRecoveryConfigs) {
  Experiment plain;
  plain.platform = "puma";
  plain.ranks = 8;

  Experiment faulty = plain;
  faulty.faults.rank_crash_rate = 0.05;
  EXPECT_NE(experiment_cache_key(plain, 42),
            experiment_cache_key(faulty, 42));

  Experiment ckpt = faulty;
  ckpt.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  EXPECT_NE(experiment_cache_key(faulty, 42),
            experiment_cache_key(ckpt, 42));

  Experiment denser = ckpt;
  denser.recovery.checkpoint_every = 5;
  EXPECT_NE(experiment_cache_key(ckpt, 42),
            experiment_cache_key(denser, 42));

  Experiment shrink = ckpt;
  shrink.recovery.shrink_ranks_on_crash = true;
  EXPECT_NE(experiment_cache_key(ckpt, 42),
            experiment_cache_key(shrink, 42));

  Experiment degraded = plain;
  degraded.faults.net_degrade_rate = 0.2;
  EXPECT_NE(experiment_cache_key(plain, 42),
            experiment_cache_key(degraded, 42));
}

// Memo stores and --proc-dir shard logs are keyed on this text, and the
// supervisor's slot pinning and chaos draws hash it: it must never drift.
TEST(CampaignEngine, CacheKeyGoldenTextOfDefaultExperiment) {
  EXPECT_EQ(
      experiment_cache_key(Experiment{}, 42),
      "0|puma|1|20|1|0|3|0|1|4581421828931458171|4608083138725491507|0|0|0|"
      "0|4613937818241073152|4633641066610819072|0|2|5|4629137466983448576|"
      "4611686018427387904|4648488871632306176|0|0|4611686018427387904|0|"
      "4609434218613702656|4629137466983448576|0|0|4608308318706860032|1|2|"
      "4|repartition|4598175219545276416|4616189618054758400|"
      "4602678819172646912|0|puma|0|4594572339843380019|0|1|0|1||42|42|");
}

TEST(CampaignEngine, CacheKeyGoldenTextWithEveryFieldSet) {
  EXPECT_EQ(
      experiment_cache_key(test::every_field_experiment(), ~0ull),
      "1|ec2|125|17|2|1|9|1|4|4584592363069127000|4605110762971426980|"
      "4576918229304087675|4581421828931458171|4585925428558828667|"
      "4584304132692975288|4612811918334230528|4631530004285489152|2|5|7|"
      "4623226492472524800|4609434218613702656|4651127699538968576|1|"
      "4598175219545276416|4612811918334230528|4591870180066957722|"
      "4610560118520545280|4626322717216342016|1|1|4608533498688228557|2|3|"
      "6|diffuse|4596373779694328218|4617315517961601024|"
      "4600877379321698714|1|lagrange|27|4596373779694328218|"
      "4608308318706860032|2|4660134898793709568|3|golden|"
      "-9223372036854775517|-1|");
}

TEST(CampaignEngine, FaultyDirectBatchIsIdenticalAtAnyJobsLevel) {
  // The whole point of the stateless fault plan: a batch of direct runs
  // with injected crashes, retries, and shrinking recovery replays
  // byte-identically whether evaluated on 1 worker or 8.
  std::vector<Experiment> batch;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    for (const auto kind : {resil::RecoveryKind::kRestartScratch,
                            resil::RecoveryKind::kCheckpointRestart}) {
      Experiment e;
      e.platform = "puma";
      e.ranks = 8;
      e.mode = Mode::kDirect;
      e.cells_per_rank_axis = 3;
      e.direct_steps = 4;
      e.faults.rank_crash_rate = 0.04;
      e.faults.net_degrade_rate = 0.2;
      e.recovery.kind = kind;
      e.recovery.max_attempts = 8;
      e.seed = seed;
      batch.push_back(e);
    }
  }
  CampaignEngine sequential(42, {.jobs = 1});
  CampaignEngine parallel(42, {.jobs = 8});
  const auto rs = sequential.run_batch(batch);
  const auto rp = parallel.run_batch(batch);
  ASSERT_EQ(rs.size(), batch.size());
  EXPECT_EQ(results_fingerprint(rs), results_fingerprint(rp));
  auto resil_fingerprint = [](const std::vector<ExperimentResult>& results) {
    std::ostringstream out;
    out.precision(17);
    for (const auto& r : results) {
      const auto& s = r.resil;
      out << s.attempts << "|" << s.faults_injected << "|"
          << s.steps_wasted << "|" << s.steps_recovered << "|"
          << s.checkpoints_written << "|" << s.retry_delay_s << "|"
          << s.wasted_sim_s << "|" << s.wasted_cost_usd << "|"
          << s.recovered << "|" << s.final_ranks << "\n";
    }
    return out.str();
  };
  EXPECT_EQ(resil_fingerprint(rs), resil_fingerprint(rp));
  // The sweep actually exercised recovery somewhere.
  int faults = 0;
  for (const auto& r : rs) {
    faults += r.resil.faults_injected;
  }
  EXPECT_GT(faults, 0);
}

TEST(CampaignEngine, DirectModeThreadBudgetBoundsInflightThreads) {
  // Four distinct direct 8-rank jobs on 4 workers under the default budget,
  // max(jobs, hardware threads): each job weighs 8, and the in-flight
  // weight never passes the budget (a job heavier than it runs alone).
  CampaignEngine engine(42, {.jobs = 4});
  std::vector<Experiment> batch;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Experiment e;
    e.platform = "puma";
    e.ranks = 8;
    e.cells_per_rank_axis = 3;
    e.mode = Mode::kDirect;
    e.direct_steps = 2;
    e.seed = seed;
    batch.push_back(e);
  }
  const auto results = engine.run_batch(batch);
  for (const auto& r : results) {
    EXPECT_TRUE(r.launched);
    EXPECT_TRUE(r.solver_converged);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.jobs_run, 4u);
  EXPECT_GE(stats.peak_inflight_threads, 8);
  EXPECT_LE(stats.peak_inflight_threads, std::max(8, engine.thread_budget()));
}

TEST(CampaignEngine, MixedModeledAndDirectBatchIsDeterministic) {
  // Modeled jobs (weight 1) interleave with direct jobs (weight ranks)
  // under one budget — the TSan workhorse case — and the result must
  // still be byte-identical to the sequential sweep.
  std::vector<Experiment> batch;
  for (int ranks : {1, 8, 27, 64}) {
    Experiment m;
    m.platform = "ec2";
    m.ranks = ranks;
    batch.push_back(m);
    Experiment d;
    d.platform = "puma";
    d.ranks = ranks <= 8 ? ranks : 1;
    d.cells_per_rank_axis = 3;
    d.mode = Mode::kDirect;
    d.direct_steps = 2;
    batch.push_back(d);
  }
  CampaignEngine sequential(42, {.jobs = 1});
  CampaignEngine parallel(42, {.jobs = 4});
  const auto rs = sequential.run_batch(batch);
  const auto rp = parallel.run_batch(batch);
  EXPECT_EQ(results_fingerprint(rs), results_fingerprint(rp));
}

TEST(CampaignEngine, FirstFailureByIndexPropagates) {
  std::vector<Experiment> batch;
  Experiment ok;
  ok.platform = "puma";
  ok.ranks = 8;
  Experiment bad;  // direct mode requires cubic ranks: 6 throws
  bad.platform = "puma";
  bad.ranks = 6;
  bad.mode = Mode::kDirect;
  batch.push_back(ok);
  batch.push_back(bad);
  batch.push_back(ok);
  CampaignEngine engine(42, {.jobs = 4});
  EXPECT_THROW(engine.run_batch(batch), Error);
  // The engine survives a failed batch and keeps serving.
  const auto r = engine.run(ok);
  EXPECT_TRUE(r.launched);
}

TEST(CampaignEngine, ParallelForCoversEveryIndexOnce) {
  CampaignEngine engine(42, {.jobs = 8});
  constexpr std::size_t kN = 300;
  std::vector<int> touched(kN, 0);
  engine.parallel_for(kN, [&](std::size_t i) { touched[i] += 1; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(touched[i], 1) << "index " << i;
  }
  EXPECT_GE(engine.stats().batches, 1u);
}

TEST(CampaignEngine, NestedParallelForRunsInline) {
  CampaignEngine engine(42, {.jobs = 4});
  std::vector<int> inner_sum(8, 0);
  engine.parallel_for(8, [&](std::size_t i) {
    // Must not deadlock: the inner loop runs inline on the worker.
    engine.parallel_for(4, [&](std::size_t j) {
      inner_sum[i] += static_cast<int>(j) + 1;
    });
  });
  for (int s : inner_sum) {
    EXPECT_EQ(s, 10);
  }
}

/// In-memory ExperimentResultStore.
class MapStore final : public ExperimentResultStore {
 public:
  bool load(const std::string& key, ExperimentResult& out) override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = results_.find(key);
    if (it == results_.end()) {
      return false;
    }
    out = it->second;
    return true;
  }
  void save(const std::string& key, const ExperimentResult& result) override {
    std::lock_guard<std::mutex> lock(mutex_);
    results_.emplace(key, result);
  }

 private:
  std::mutex mutex_;
  std::map<std::string, ExperimentResult> results_;
};

/// Runs every experiment in this process and records the cache key of
/// each one it is handed.
class RecordingExecutor final : public BatchExecutor {
 public:
  std::vector<ExecOutcome> execute(const std::vector<Experiment>& batch) override {
    std::vector<ExecOutcome> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      seen.push_back(experiment_cache_key(batch[i], 42));
      try {
        out[i].result = runner_.run(batch[i]);
      } catch (const std::exception& e) {
        out[i].failed = true;
        out[i].error = e.what();
      }
    }
    return out;
  }

  std::vector<std::string> seen;

 private:
  ExperimentRunner runner_{42};
};

TEST(CampaignEngine, ExecutorAndPoolShareOneMemoFlow) {
  Experiment repeated;
  repeated.platform = "puma";
  repeated.ranks = 27;
  Experiment stored;
  stored.platform = "ellipse";
  stored.ranks = 64;
  Experiment metrics = repeated;
  metrics.metrics_path = "/tmp/campaign_engine_flow_metrics.json";
  Experiment b;
  b.platform = "lagrange";
  b.ranks = 8;
  Experiment c;
  c.platform = "ec2";
  c.ranks = 125;
  const std::vector<Experiment> batch = {repeated, stored,   repeated, metrics,
                                         b,        repeated, c};
  Experiment ok;
  ok.platform = "puma";
  ok.ranks = 8;
  Experiment bad = ok;  // direct mode requires cubic ranks: 6 throws
  bad.ranks = 6;
  bad.mode = Mode::kDirect;

  struct Run {
    std::vector<std::string> bytes;
    CampaignEngineStats stats;
    std::string error;
  };
  const auto evaluate = [&](BatchExecutor* executor) {
    MapStore store;
    store.save(experiment_cache_key(stored, 42),
               ExperimentRunner(42).run(stored));
    CampaignEngine engine(
        42, {.jobs = 4, .result_store = &store, .executor = executor});
    Run run;
    for (const auto& r : engine.run_batch(batch)) {
      run.bytes.push_back(svc::encode_result(r));
    }
    run.stats = engine.stats();
    try {
      engine.run_batch({ok, bad, ok});
    } catch (const Error& e) {
      run.error = e.what();
    }
    EXPECT_TRUE(engine.run(ok).launched);  // still serving
    return run;
  };

  const Run pool = evaluate(nullptr);
  RecordingExecutor executor;
  const Run remote = evaluate(&executor);
  std::remove(metrics.metrics_path.c_str());

  EXPECT_EQ(pool.bytes, remote.bytes);
  for (const Run* run : {&pool, &remote}) {
    EXPECT_EQ(run->stats.cache_hits, 2u);
    EXPECT_EQ(run->stats.cache_misses, 4u);
    EXPECT_EQ(run->stats.store_hits, 1u);
    EXPECT_EQ(run->stats.jobs_run, 4u);  // 3 owned misses + the metrics run
  }
  EXPECT_NE(pool.error.find("cubic rank count"), std::string::npos)
      << pool.error;
  EXPECT_EQ(pool.error, remote.error);
  // Each distinct, unstored, non-output experiment once, then the failing
  // batch's two distinct experiments; never the metrics run.
  EXPECT_EQ(executor.seen,
            (std::vector<std::string>{
                experiment_cache_key(repeated, 42), experiment_cache_key(b, 42),
                experiment_cache_key(c, 42), experiment_cache_key(ok, 42),
                experiment_cache_key(bad, 42)}));
}

TEST(CampaignEngine, ParallelForNeverWaitsForAnotherCallersBatch) {
  CampaignEngine engine(42, {.jobs = 4});
  std::latch entered(1);
  std::latch release(1);
  std::thread holder([&] {
    engine.parallel_for(2, [&](std::size_t i) {
      if (i == 0) {
        entered.count_down();
        release.wait();
      }
    });
  });
  entered.wait();  // the holder's range now holds the pool

  std::vector<int> touched(4, 0);
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread second([&] {
    engine.parallel_for(4, [&](std::size_t i) { touched[i] += 1; });
    done.set_value();
  });
  const bool in_time = finished.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  release.count_down();  // never leave the holder (or a waiter) hanging
  holder.join();
  second.join();
  EXPECT_TRUE(in_time) << "parallel_for waited for another caller's batch";
  EXPECT_EQ(touched, std::vector<int>(4, 1));
}

}  // namespace
}  // namespace hetero::core
