// Tests for the multi-process campaign backend: chaos planning, the
// supervisor<->worker wire protocol, the shared RecordLog (including
// cross-process contention), and the supervised worker pool end to end —
// crash retry, hang detection, poison-job quarantine, shard harvesting —
// always against the byte-identity contract with the in-process pool.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "codec_fixtures.hpp"
#include "core/campaign_engine.hpp"
#include "core/experiment.hpp"
#include "proc/chaos.hpp"
#include "proc/supervisor.hpp"
#include "proc/wire.hpp"
#include "prop_util.hpp"
#include "support/byte_codec.hpp"
#include "support/error.hpp"
#include "support/record_log.hpp"
#include "svc/result_codec.hpp"

namespace hetero::proc {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) : path("/tmp/" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) : path("/tmp/" + name) {
    std::string cmd = "rm -rf " + path;
    std::system(cmd.c_str());
    ::mkdir(path.c_str(), 0755);
  }
  ~TempDir() {
    std::string cmd = "rm -rf " + path;
    std::system(cmd.c_str());
  }
};

/// A small modeled campaign touching several platforms and rank counts,
/// with a duplicate descriptor to exercise in-batch dedup.
std::vector<core::Experiment> small_campaign() {
  std::vector<core::Experiment> batch;
  for (const char* platform : {"puma", "ec2", "lagrange"}) {
    for (int ranks : {8, 27, 64}) {
      core::Experiment e;
      e.platform = platform;
      e.ranks = ranks;
      batch.push_back(e);
    }
  }
  core::Experiment ns = batch.front();
  ns.app = perf::AppKind::kNavierStokes;
  batch.push_back(ns);
  batch.push_back(batch.front());  // duplicate of [0]
  return batch;
}

std::vector<std::string> reference_encodings(
    const std::vector<core::Experiment>& batch, std::uint64_t seed = 42) {
  core::CampaignEngine engine(seed);
  std::vector<std::string> out;
  for (const auto& r : engine.run_batch(batch)) {
    out.push_back(svc::encode_result(r));
  }
  return out;
}

// --- chaos -------------------------------------------------------------

TEST(Chaos, ParsesSpecsAndRejectsMalformedOnes) {
  const auto spec = parse_chaos_spec("crash:0.05,hang:0.1,exit:0.25");
  EXPECT_DOUBLE_EQ(spec.crash_p, 0.05);
  EXPECT_DOUBLE_EQ(spec.hang_p, 0.1);
  EXPECT_DOUBLE_EQ(spec.exit_p, 0.25);
  EXPECT_TRUE(spec.any());

  const auto partial = parse_chaos_spec("hang:1");
  EXPECT_DOUBLE_EQ(partial.hang_p, 1.0);
  EXPECT_DOUBLE_EQ(partial.crash_p, 0.0);

  EXPECT_FALSE(parse_chaos_spec("").any());
  EXPECT_THROW(parse_chaos_spec("frobnicate:0.5"), Error);
  EXPECT_THROW(parse_chaos_spec("crash:1.5"), Error);
  EXPECT_THROW(parse_chaos_spec("crash:-0.1"), Error);
  EXPECT_THROW(parse_chaos_spec("crash"), Error);
}

TEST(Chaos, DecisionsAreDeterministicAndAttemptSensitive) {
  ChaosSpec spec;
  spec.crash_p = 0.3;
  spec.hang_p = 0.3;
  spec.exit_p = 0.3;
  std::map<int, ChaosAction> first;
  for (int key = 0; key < 64; ++key) {
    first[key] = chaos_decide(spec, 7, static_cast<std::uint64_t>(key), 0);
  }
  for (int key = 0; key < 64; ++key) {
    EXPECT_EQ(chaos_decide(spec, 7, static_cast<std::uint64_t>(key), 0),
              first[key])
        << "decision for key " << key << " must be a pure function";
  }
  // The attempt is part of the hash: a job that drew a kill on attempt 0
  // usually draws something else on attempt 1.
  int changed = 0;
  for (int key = 0; key < 64; ++key) {
    if (chaos_decide(spec, 7, static_cast<std::uint64_t>(key), 1) !=
        first[key]) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);
}

TEST(Chaos, ZeroSpecNeverFiresAndCertainSpecAlwaysDoes) {
  for (int key = 0; key < 32; ++key) {
    EXPECT_EQ(chaos_decide(ChaosSpec{}, 1, static_cast<std::uint64_t>(key), 0),
              ChaosAction::kNone);
  }
  ChaosSpec certain;
  certain.crash_p = 1.0;
  for (int key = 0; key < 32; ++key) {
    EXPECT_EQ(chaos_decide(certain, 1, static_cast<std::uint64_t>(key), 0),
              ChaosAction::kCrash);
  }
}

// --- wire --------------------------------------------------------------

TEST(Wire, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Frame sent;
  sent.type = FrameType::kDone;
  sent.job_id = 0xDEADBEEFCAFEULL;
  sent.attempt = 3;
  sent.payload = std::string("result bytes\0with a nul", 23);
  ASSERT_TRUE(send_frame(fds[1], sent));
  Frame got;
  ASSERT_TRUE(recv_frame(fds[0], &got));
  EXPECT_EQ(got.type, FrameType::kDone);
  EXPECT_EQ(got.job_id, sent.job_id);
  EXPECT_EQ(got.attempt, sent.attempt);
  EXPECT_EQ(got.payload, sent.payload);
  ::close(fds[1]);
  // EOF is a clean false, not an exception — peer death is routine.
  EXPECT_FALSE(recv_frame(fds[0], &got));
  ::close(fds[0]);
}

TEST(Wire, TornFramesAndBadMagicReadAsPeerDeath) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Half a header, then the writer "dies".
  const std::uint32_t magic = 0x48504631;
  ASSERT_EQ(::write(fds[1], &magic, 2), 2);
  ::close(fds[1]);
  Frame got;
  EXPECT_FALSE(recv_frame(fds[0], &got));
  ::close(fds[0]);

  ASSERT_EQ(::pipe(fds), 0);
  const char garbage[24] = "this is not a frame....";
  ASSERT_EQ(::write(fds[1], garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  EXPECT_FALSE(recv_frame(fds[0], &got));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, ExperimentCodecRoundTripsEveryField) {
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
  e.faults.net_degrade_rate = 0.03;
  e.faults.reclaim_storm_rate = 0.04;
  e.recovery.kind = resil::RecoveryKind::kCheckpointRestart;
  e.recovery.checkpoint_every = 5;
  e.recovery.shrink_ranks_on_crash = true;
  e.rebroker.enabled = true;
  e.rebroker.fallback_platform = "puma";
  e.rebroker.hysteresis = 0.2;
  e.rebroker.migrate_budget_usd = 1.25;
  e.rebroker.sample_every = 2;
  e.rebroker.deadline_s = 3600.0;
  e.skew.slow_core_factor = 2.5;
  e.skew.slow_core_fraction = 0.25;
  e.skew.noise_rate = 0.1;
  e.skew_assume_balanced = true;
  e.balance.enabled = true;
  e.balance.mode = "diffuse";
  e.balance.threshold = 1.3;
  e.seed = 1234567;

  const auto d = decode_experiment(encode_experiment(e));
  EXPECT_EQ(d.app, e.app);
  EXPECT_EQ(d.platform, e.platform);
  EXPECT_EQ(d.ranks, e.ranks);
  EXPECT_EQ(d.cells_per_rank_axis, e.cells_per_rank_axis);
  EXPECT_EQ(d.element_order, e.element_order);
  EXPECT_EQ(d.mode, e.mode);
  EXPECT_EQ(d.direct_steps, e.direct_steps);
  EXPECT_EQ(d.ec2_spot_mix, e.ec2_spot_mix);
  EXPECT_EQ(d.ec2_placement_groups, e.ec2_placement_groups);
  EXPECT_DOUBLE_EQ(d.cross_group_penalty, e.cross_group_penalty);
  EXPECT_DOUBLE_EQ(d.ec2_spot_bid_usd, e.ec2_spot_bid_usd);
  EXPECT_DOUBLE_EQ(d.faults.rank_crash_rate, e.faults.rank_crash_rate);
  EXPECT_DOUBLE_EQ(d.faults.reclaim_storm_rate, e.faults.reclaim_storm_rate);
  EXPECT_EQ(d.recovery.kind, e.recovery.kind);
  EXPECT_EQ(d.recovery.checkpoint_every, e.recovery.checkpoint_every);
  EXPECT_EQ(d.recovery.shrink_ranks_on_crash, e.recovery.shrink_ranks_on_crash);
  EXPECT_EQ(d.rebroker.enabled, e.rebroker.enabled);
  EXPECT_EQ(d.rebroker.fallback_platform, e.rebroker.fallback_platform);
  EXPECT_DOUBLE_EQ(d.rebroker.hysteresis, e.rebroker.hysteresis);
  EXPECT_DOUBLE_EQ(d.skew.slow_core_factor, e.skew.slow_core_factor);
  EXPECT_EQ(d.skew_assume_balanced, e.skew_assume_balanced);
  EXPECT_EQ(d.balance.enabled, e.balance.enabled);
  EXPECT_EQ(d.balance.mode, e.balance.mode);
  EXPECT_DOUBLE_EQ(d.balance.threshold, e.balance.threshold);
  EXPECT_EQ(d.seed, e.seed);
  // The canonical cache key sees the decoded copy as the same experiment.
  EXPECT_EQ(core::experiment_cache_key(d, 42),
            core::experiment_cache_key(e, 42));
  // Output sinks never leave the process: such runs are not shippable.
  core::Experiment traced = e;
  traced.trace_path = "/tmp/trace.json";
  EXPECT_THROW(encode_experiment(traced), Error);
  core::Experiment metered = e;
  metered.metrics_path = "/tmp/metrics.json";
  EXPECT_THROW(encode_experiment(metered), Error);
}

// Every field of core::visit_fields reaches the payload and the cache key
// and round-trips, with no hand-kept list of fields to forget one in.
TEST(Wire, ExperimentCodecAndKeyChangeWithEveryField) {
  const core::Experiment base = test::every_field_experiment();
  const auto fields = test::field_bytes(base);
  const auto defaults = test::field_bytes(core::Experiment{});
  const std::string payload = encode_experiment(base);
  const std::string key = core::experiment_cache_key(base, 42);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    SCOPED_TRACE("field " + std::to_string(i));
    EXPECT_NE(fields[i], defaults[i]);  // the golden fixture covers it
    const core::Experiment changed = test::with_field_perturbed(base, i);
    const auto changed_fields = test::field_bytes(changed);
    for (std::size_t j = 0; j < fields.size(); ++j) {
      EXPECT_EQ(changed_fields[j] == fields[j], j != i) << "field " << j;
    }
    const std::string bytes = encode_experiment(changed);
    EXPECT_NE(bytes, payload);
    const core::Experiment decoded = decode_experiment(bytes);
    EXPECT_EQ(test::field_bytes(decoded), changed_fields);
    EXPECT_EQ(encode_experiment(decoded), bytes);
    EXPECT_NE(core::experiment_cache_key(changed, 42), key);
  }
}

TEST(Wire, ExperimentCodecRejectsVersionMismatchAndGarbage) {
  core::Experiment e;
  auto bytes = encode_experiment(e);
  const std::string good = bytes;
  bytes[0] = static_cast<char>(kExperimentCodecVersion + 1);
  EXPECT_THROW(decode_experiment(bytes), Error);
  EXPECT_THROW(decode_experiment("short"), Error);
  EXPECT_THROW(decode_experiment(""), Error);
  EXPECT_THROW(decode_experiment(good + "x"), Error);

  // Crafted payloads. Layout of the default experiment: version [0],
  // app [1,9), platform length [9,17) + "puma" [17,21), ranks [21,29), ...,
  // ec2_spot_mix (one bool byte) at 61.
  ASSERT_EQ(good.substr(17, 4), "puma");
  ASSERT_EQ(good[61], '\0');
  // A string length of 2^64-1 must not wrap the reader's bounds check. A
  // reader that adds the length to its position steps back one byte, takes
  // the rest of the payload as the platform and re-reads it as the later
  // fields: this payload then decodes with ranks = 255.
  const std::string wrapped = good.substr(0, 9) + std::string(8, '\xff') +
                              std::string(7, '\0') + good.substr(29);
  EXPECT_THROW(decode_experiment(wrapped), Error);
  EXPECT_THROW(decode_experiment(test::with_word(good, 9, 1ull << 40)), Error);
  // An int field holding 2^32+8 must not narrow silently to 8.
  EXPECT_THROW(decode_experiment(test::with_word(good, 21, (1ull << 32) + 8)),
               Error);
  EXPECT_THROW(decode_experiment(test::with_word(good, 21, 1ull << 63)), Error);
  // A bool byte other than 0 or 1 would re-encode differently.
  std::string bad_bool = good;
  bad_bool[61] = '\2';
  EXPECT_THROW(decode_experiment(bad_bool), Error);
}

// 20,000 seeded mutants of a payload with every field set: each one either
// raises hetero::Error or decodes to a value that re-encodes to its bytes.
TEST(Wire, ExperimentCodecSurvivesSeededMutants) {
  const auto tally = test::run_mutants(
      0x5eed0e1, encode_experiment(test::every_field_experiment()), 20000,
      [](const std::string& b) { return decode_experiment(b); },
      [](const core::Experiment& e) { return encode_experiment(e); });
  EXPECT_EQ(tally.misread, 0);
  EXPECT_EQ(tally.foreign, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.decoded, 0);
}

// 20,000 seeded mutants of a real job frame, each read back through a
// pipe: recv_frame either rejects it or delivers a known type with exactly
// the header's length of payload. It never throws, and never allocates for
// payload bytes that did not arrive (a lying length field used to
// zero-fill up to 4 GiB before the read failed).
TEST(Wire, FrameHeaderSurvivesSeededMutants) {
  Frame job;
  job.type = FrameType::kJob;
  job.job_id = 0x0123456789abcdefULL;
  job.attempt = 2;
  job.payload = encode_experiment(test::every_field_experiment());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(send_frame(fds[1], job));
  ::close(fds[1]);
  std::string frame(kFrameHeaderBytes + job.payload.size() + 1, '\0');
  ASSERT_EQ(::read(fds[0], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size() - 1));
  frame.pop_back();
  ::close(fds[0]);

  test::PropRng rng(0xf4a3e5);
  int accepted = 0;
  int rejected = 0;
  int foreign = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string mutant = test::mutate(rng, frame);
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], mutant.data(), mutant.size()),
              static_cast<ssize_t>(mutant.size()));
    ::close(fds[1]);
    Frame got;
    try {
      if (recv_frame(fds[0], &got)) {
        ++accepted;
        EXPECT_TRUE(got.type == FrameType::kJob ||
                    got.type == FrameType::kDone ||
                    got.type == FrameType::kFail ||
                    got.type == FrameType::kShutdown);
        const std::size_t len = support::get_u32(mutant.data() + 20);
        EXPECT_EQ(got.payload, mutant.substr(kFrameHeaderBytes, len));
      } else {
        ++rejected;
      }
    } catch (...) {
      ++foreign;
    }
    EXPECT_LE(got.payload.capacity(), mutant.size() + kFrameChunkBytes);
    ::close(fds[0]);
  }
  EXPECT_EQ(foreign, 0);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// --- record log under fork-level contention ----------------------------

TEST(RecordLog, TwoProcessesAppendingLandWholeRecords) {
  TempFile f("proc_test_contention.log");
  constexpr int kWriters = 2;
  constexpr int kRecords = 200;
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: its own open-file-description, so flock actually contends.
      support::RecordLog log(f.path);
      for (int i = 0; i < kRecords; ++i) {
        const std::string key =
            std::string("w") + std::to_string(w) + ":" + std::to_string(i);
        log.append(key, std::string(64, static_cast<char>('a' + w)));
      }
      log.flush();
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  support::RecordLog log(f.path);
  std::set<std::string> keys;
  const auto stats = log.recover([&](std::string key, std::string value) {
    EXPECT_EQ(value.size(), 64u);
    keys.insert(std::move(key));
  });
  EXPECT_EQ(stats.recovered_records, kWriters * kRecords);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(kWriters * kRecords));
}

// --- supervisor --------------------------------------------------------

TEST(Supervisor, ResolveWorkersPrefersExplicitThenEnvironment) {
  ::unsetenv("HETEROLAB_WORKERS");
  EXPECT_EQ(resolve_workers(3), 3);
  EXPECT_EQ(resolve_workers(0), 0);
  EXPECT_EQ(resolve_workers(-1), 0);
  ::setenv("HETEROLAB_WORKERS", "5", 1);
  EXPECT_EQ(resolve_workers(-1), 5);
  EXPECT_EQ(resolve_workers(2), 2);
  EXPECT_EQ(resolve_workers(0), 0);  // explicit 0 still disables
  ::setenv("HETEROLAB_WORKERS", "not a number", 1);
  EXPECT_EQ(resolve_workers(-1), 0);
  ::unsetenv("HETEROLAB_WORKERS");
  EXPECT_EQ(make_supervisor(0, 42), nullptr);
}

TEST(Supervisor, MatchesTheInProcessPoolByteForByte) {
  const auto batch = small_campaign();
  const auto reference = reference_encodings(batch);

  ProcOptions options;
  options.workers = 2;
  Supervisor supervisor(42, options);
  core::CampaignEngineOptions eopt;
  eopt.executor = &supervisor;
  core::CampaignEngine engine(42, eopt);
  const auto results = engine.run_batch(batch);

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(svc::encode_result(results[i]), reference[i])
        << "result " << i << " diverged from the in-process pool";
  }
  const auto stats = supervisor.stats();
  EXPECT_GT(stats.jobs_dispatched, 0u);
  EXPECT_EQ(stats.worker_crashes, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(Supervisor, SurvivesCrashAndExitChaosByteForByte) {
  const auto batch = small_campaign();
  const auto reference = reference_encodings(batch);

  ProcOptions options;
  options.workers = 3;
  options.chaos.crash_p = 0.25;
  options.chaos.exit_p = 0.25;
  // p(kill) = 0.5 per attempt: keep the quarantine threshold out of reach
  // so every job eventually lands (the quarantine path has its own test).
  options.max_crashes_per_job = 20;
  options.respawn_backoff_base_s = 0.01;
  options.respawn_backoff_cap_s = 0.05;
  Supervisor supervisor(42, options);
  core::CampaignEngineOptions eopt;
  eopt.executor = &supervisor;
  core::CampaignEngine engine(42, eopt);
  const auto results = engine.run_batch(batch);

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(svc::encode_result(results[i]), reference[i]);
  }
  const auto stats = supervisor.stats();
  // With p(kill) = 0.5 per (job, attempt) over ~11 jobs the planned chaos
  // is deterministic in the seed; this asserts the plan actually fired.
  EXPECT_GT(stats.worker_crashes, 0u);
  EXPECT_EQ(stats.respawns, stats.worker_crashes);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(Supervisor, ReapsHungWorkersAndStillMatches) {
  const auto batch = small_campaign();
  const auto reference = reference_encodings(batch);

  ProcOptions options;
  options.workers = 2;
  options.chaos.hang_p = 0.3;
  options.max_crashes_per_job = 20;
  options.heartbeat_interval_s = 0.02;
  options.heartbeat_timeout_s = 0.25;
  options.respawn_backoff_base_s = 0.01;
  Supervisor supervisor(42, options);
  core::CampaignEngineOptions eopt;
  eopt.executor = &supervisor;
  core::CampaignEngine engine(42, eopt);
  const auto results = engine.run_batch(batch);

  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(svc::encode_result(results[i]), reference[i]);
  }
  const auto stats = supervisor.stats();
  EXPECT_GT(stats.hung_workers, 0u);
  // A hang stalls *mid-experiment* (after compute, before the shard
  // append), so the reaped worker's job is recomputed on a fresh attempt.
  EXPECT_GT(stats.redispatches, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(Supervisor, QuarantinesPoisonJobsAndCompletesTheCampaign) {
  ProcOptions options;
  options.workers = 2;
  options.chaos.crash_p = 1.0;  // every attempt of every job crashes
  options.max_crashes_per_job = 2;
  options.respawn_backoff_base_s = 0.01;
  options.respawn_backoff_cap_s = 0.02;
  Supervisor supervisor(42, options);
  core::CampaignEngineOptions eopt;
  eopt.executor = &supervisor;
  core::CampaignEngine engine(42, eopt);

  std::vector<core::Experiment> batch;
  for (int ranks : {8, 27}) {
    core::Experiment e;
    e.ranks = ranks;
    batch.push_back(e);
  }
  const auto results = engine.run_batch(batch);  // completes, no wedge
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) {
    EXPECT_FALSE(r.launched);
    EXPECT_NE(r.failure_reason.find("quarantined"), std::string::npos)
        << "got: " << r.failure_reason;
    EXPECT_NE(r.failure_reason.find("2 times"), std::string::npos)
        << "got: " << r.failure_reason;
  }
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.quarantined, batch.size());
  EXPECT_GE(stats.worker_crashes, 2u * batch.size());
}

TEST(Supervisor, ChargesOnlyTheJobItsWorkerDiedOnInsideAWindow) {
  // One slot holds the whole batch in its window. Chaos crashes the poison
  // job on attempts 0 and 1, and every other job on attempt 1 only: a
  // crash charged to any job but the poison one would make its re-send
  // crash too, and show as an extra death.
  ChaosSpec chaos;
  chaos.crash_p = 0.5;
  const auto crashes_on = [&](const core::Experiment& e, int attempt) {
    const std::string key = core::experiment_cache_key(e, 42);
    return chaos_decide(chaos, 42, job_key_hash(key), attempt) ==
           ChaosAction::kCrash;
  };
  std::vector<core::Experiment> batch;
  std::size_t poison = 0;
  bool have_poison = false;
  for (std::uint64_t seed = 1; batch.size() < 8; ++seed) {
    core::Experiment e;
    e.platform = "puma";
    e.ranks = 8;
    e.seed = seed;
    const bool first = crashes_on(e, 0);
    const bool second = crashes_on(e, 1);
    if (first && second && !have_poison && batch.size() == 3) {
      poison = batch.size();
      have_poison = true;
      batch.push_back(e);
    } else if (!first && second && (have_poison || batch.size() < 3)) {
      batch.push_back(e);
    }
  }
  ASSERT_EQ(poison, 3u);
  const auto reference = reference_encodings(batch);

  ProcOptions options;
  options.workers = 1;
  options.chaos = chaos;
  options.max_crashes_per_job = 2;
  options.respawn_backoff_base_s = 0.01;
  options.respawn_backoff_cap_s = 0.02;
  Supervisor supervisor(42, options);
  const auto outcomes = supervisor.execute(batch);

  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(outcomes[i].failed) << outcomes[i].error;
    if (i == poison) {
      EXPECT_FALSE(outcomes[i].result.launched);
      EXPECT_NE(outcomes[i].result.failure_reason.find(
                    "quarantined: experiment killed its worker 2 times"),
                std::string::npos)
          << "got: " << outcomes[i].result.failure_reason;
    } else {
      EXPECT_EQ(svc::encode_result(outcomes[i].result), reference[i])
          << "job " << i << " diverged from the in-process pool";
    }
  }
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.worker_crashes, 2u);
  EXPECT_EQ(stats.quarantined, 1u);
  // The poison job's one retry is the only redispatch; the four jobs
  // re-sent from behind it after each death are neither.
  EXPECT_EQ(stats.redispatches, 1u);
  EXPECT_EQ(stats.jobs_dispatched, batch.size() + 1);
  EXPECT_EQ(stats.results_completed, batch.size() - 1);
  EXPECT_EQ(stats.shard_replays, 0u);
}

TEST(Supervisor, HarvestsShardsFromAPreviousRun) {
  TempDir dir("proc_test_shards");
  const auto batch = small_campaign();
  const auto reference = reference_encodings(batch);

  ProcOptions options;
  options.workers = 2;
  options.shard_dir = dir.path;
  {
    Supervisor first(42, options);
    core::CampaignEngineOptions eopt;
    eopt.executor = &first;
    core::CampaignEngine engine(42, eopt);
    engine.run_batch(batch);
    EXPECT_GT(first.stats().jobs_dispatched, 0u);
  }
  // Same shard directory, fresh supervisor: every result must come from
  // the harvested shards, with nothing recomputed.
  Supervisor second(42, options);
  core::CampaignEngineOptions eopt;
  eopt.executor = &second;
  core::CampaignEngine engine(42, eopt);
  const auto results = engine.run_batch(batch);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(svc::encode_result(results[i]), reference[i]);
  }
  const auto stats = second.stats();
  EXPECT_EQ(stats.jobs_dispatched, 0u);
  EXPECT_GT(stats.shard_replays, 0u);
}

TEST(Supervisor, DestructionLeavesNoChildren) {
  {
    ProcOptions options;
    options.workers = 3;
    Supervisor supervisor(42, options);
    core::CampaignEngineOptions eopt;
    eopt.executor = &supervisor;
    core::CampaignEngine engine(42, eopt);
    core::Experiment e;
    engine.run(e);
  }
  // Everything reaped: no zombies, no stragglers.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(Supervisor, RejectsNonsenseOptions) {
  ProcOptions bad;
  bad.workers = 0;
  EXPECT_THROW(Supervisor s(42, bad), Error);
  bad = ProcOptions{};
  bad.heartbeat_timeout_s = 0.0;
  EXPECT_THROW(Supervisor s(42, bad), Error);
  bad = ProcOptions{};
  bad.max_crashes_per_job = 0;
  EXPECT_THROW(Supervisor s(42, bad), Error);
}

}  // namespace
}  // namespace hetero::proc
