#pragma once

/// \file supervisor.hpp
/// Supervised multi-process execution backend for the CampaignEngine.
///
/// The supervisor forks N worker processes up front (while the parent is
/// still single-threaded) and implements `core::BatchExecutor`: each batch
/// of cache-miss experiments is distributed over the workers by descriptor
/// hash (a job is pinned to its slot, so retries and restarts land on the
/// same shard), shipped as binary frames over per-worker pipes, and
/// collected in submission order.
///
/// Each worker holds a *window* of up to 8 sent, unanswered jobs, so it
/// never idles waiting for the supervisor between jobs. The window's job
/// frames never total more bytes than the job pipe holds (F_GETPIPE_SZ),
/// so the supervisor's write cannot block while the worker blocks on a
/// full result pipe. A worker runs its window in order and answers in
/// order.
///
/// Failure is treated as the common case:
///
///   * every worker sends a heartbeat byte on a dedicated pipe from a
///     SIGALRM tick; a worker with unanswered jobs silent past the deadline
///     is SIGKILLed;
///   * worker death (crash, chaos exit, hang-kill) is detected by pipe EOF
///     and decoded via waitpid. Replies still in the pipe and results in
///     the worker's shard settle their jobs; of the rest of the window,
///     the oldest job is the one the worker died on and alone is charged
///     the crash and re-dispatched, and the jobs behind it, which never
///     started, go back to the queue in order, uncharged. The slot
///     respawns with capped exponential backoff;
///   * a job that kills its worker `max_crashes_per_job` times is
///     *quarantined*: recorded as a failed ExperimentResult naming the
///     crash, so a poison job cannot wedge the campaign;
///   * workers append every completed result to a per-slot crash-safe
///     shard log (`support::RecordLog`, checksummed, torn tails truncated
///     on recovery). The supervisor reads the shards at construction, so
///     work left by a previous interrupted run sharing the shard directory
///     is never recomputed, and reads a worker's shard when it dies, so
///     work it finished but never reported is never recomputed either.
///     Live workers report through the pipe, and nothing else re-reads the
///     logs.
///
/// Determinism: workers run the same `ExperimentRunner(seed)` as the
/// in-process pool and results are returned in submission order, so every
/// table/CSV/JSONL stays byte-identical to `--workers 0` at any worker
/// count (quarantined rows excepted, by construction). Chaos injection
/// (`HETERO_CHAOS`) is itself seed-deterministic — see chaos.hpp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign_engine.hpp"
#include "proc/chaos.hpp"

namespace hetero::proc {

struct ProcOptions {
  /// Worker processes to fork. Must be >= 1 (callers degrade to the
  /// in-process pool instead of constructing a Supervisor with 0).
  int workers = 1;
  /// Worker heartbeat tick (SIGALRM period).
  double heartbeat_interval_s = 0.1;
  /// A worker with unanswered jobs and no heartbeat for this long is
  /// declared hung and SIGKILLed.
  double heartbeat_timeout_s = 5.0;
  /// Crashes (of any kind) one job may cause before it is quarantined.
  int max_crashes_per_job = 3;
  /// Respawn backoff: min(cap, base * 2^(consecutive deaths - 1)).
  double respawn_backoff_base_s = 0.05;
  double respawn_backoff_cap_s = 1.0;
  /// Directory for the per-worker result shards. Empty = a private
  /// mkdtemp directory removed on destruction; a persistent path makes an
  /// interrupted campaign restart incremental even without --store.
  std::string shard_dir;
  /// Chaos injection spec. When zero (the default), the HETERO_CHAOS
  /// environment variable is consulted instead.
  ChaosSpec chaos;
};

struct ProcStats {
  /// Jobs sent to a worker: first sends plus redispatches.
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t results_completed = 0;
  /// Results answered from a shard log instead of a live worker (worker
  /// died after computing, or a previous run left them behind).
  std::uint64_t shard_replays = 0;
  /// Worker deaths observed (crashes, chaos exits, hang kills).
  std::uint64_t worker_crashes = 0;
  /// Of which: heartbeat-deadline SIGKILLs.
  std::uint64_t hung_workers = 0;
  /// Workers forked after a death (initial spawns not counted).
  std::uint64_t respawns = 0;
  /// Jobs re-sent after their worker died on them (jobs re-sent only
  /// because they sat behind such a job in its window count in neither
  /// this nor jobs_dispatched).
  std::uint64_t redispatches = 0;
  /// Jobs recorded as failed results after max_crashes_per_job deaths.
  std::uint64_t quarantined = 0;
};

class Supervisor final : public core::BatchExecutor {
 public:
  /// Forks the workers immediately — construct while the process is still
  /// single-threaded (before any engine pool exists). Throws on fork/pipe
  /// failure or an invalid options combination.
  Supervisor(std::uint64_t runner_seed, ProcOptions options = {});
  /// Shuts the workers down (SIGKILL + waitpid — shards make abrupt death
  /// safe) and removes a private shard directory.
  ~Supervisor() override;

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// core::BatchExecutor: runs the batch on the worker pool. Thread-safe
  /// (concurrent batches serialize). Outcomes are in submission order.
  std::vector<core::ExecOutcome> execute(
      const std::vector<core::Experiment>& batch) override;

  /// SIGKILLs every live worker without reaping. Async-usable from the
  /// shutdown watcher thread; the destructor still reaps.
  void kill_workers();

  int workers() const;
  ProcStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// `--workers` resolution shared by every CLI consumer: an explicit
/// request >= 0 wins (0 = disabled), a negative request consults a
/// positive integer HETEROLAB_WORKERS, else 0 (in-process pool).
int resolve_workers(int requested);

/// Convenience used by the CLI and benches: a Supervisor when the resolved
/// worker count is positive, nullptr (in-process pool) otherwise.
std::unique_ptr<Supervisor> make_supervisor(int requested_workers,
                                            std::uint64_t runner_seed,
                                            ProcOptions options = {});

}  // namespace hetero::proc
