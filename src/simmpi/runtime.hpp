#pragma once

/// \file runtime.hpp
/// The simulated message-passing runtime.
///
/// `Runtime` executes N ranks inside one process: ranks run as fibers on
/// min(ranks, CPUs) host threads, where CPUs counts the calling thread's
/// affinity mask. Messages are moved through in-memory mailboxes (so the
/// numerics are exactly what a real MPI job would compute) while a netsim
/// `Topology` prices every transfer and collective into per-rank virtual
/// clocks. This replaces the paper's physical clusters: the applications
/// run the real message-passing code path; only *time* is modeled.
///
/// Semantics implemented (exactly the MPI the applications and substrates
/// call, with MPI-compatible behaviour, on the world communicator only):
///   * `send` is buffered and never blocks (eager-protocol semantics);
///   * `recv(src, tag)` blocks until a matching message arrives; matching is
///     by exact (source, tag), preserving MPI's non-overtaking order per
///     (source, tag) pair;
///   * `barrier`, `allreduce`, `allgatherv` and `alltoallv` are
///     synchronizing collectives: all clocks merge to max(entry clocks) +
///     modeled collective cost.
///
/// Scheduling is cooperative, run-until-blocked: each host thread owns a
/// contiguous block of ranks and runs one of them until it blocks in a
/// receive or a collective, then switches to the next ready one. Nothing
/// the ranks compute depends on that order. Because a fiber parks only
/// when it waits on another rank, a run whose ranks are all parked is
/// certainly deadlocked; `run()` then fails at once with an error naming
/// every blocked rank and what it waits for.
///
/// Rank bodies must not block the host thread by other means (a mutex held
/// across a receive, a condition variable, a sleep waiting on another
/// rank): the ranks sharing that thread could not run meanwhile.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "netsim/degradation.hpp"
#include "netsim/topology.hpp"
#include "simmpi/simclock.hpp"

namespace hetero::simmpi {

class Comm;

/// Per-rank traffic counters (virtual-time accounting).
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t collectives = 0;
  /// Virtual seconds this rank spent inside communication calls.
  double comm_seconds = 0.0;
  /// Point-to-point payload bytes sent to each destination rank — the
  /// row of the job's traffic matrix owned by this rank. Collectives are
  /// not included (they move through the rendezvous, not the mailboxes).
  std::vector<std::uint64_t> bytes_by_dest;
};

/// Byte blocks a rank brings to a collective rendezvous and takes away from
/// it: none for barrier, one for allreduce and allgatherv, one per peer
/// rank for alltoallv.
using Blocks = std::vector<std::vector<std::byte>>;

/// Thrown inside rank bodies when another rank failed and the job is being
/// torn down; rank code should let it propagate.
class Aborted : public Error {
 public:
  Aborted() : Error("simmpi: job aborted by another rank") {}
};

class Runtime {
 public:
  /// Creates a runtime for `topology.ranks()` ranks.
  explicit Runtime(netsim::Topology topology);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int size() const { return topology_.ranks(); }
  const netsim::Topology& topology() const { return topology_; }

  /// Runs `rank_main` once per rank, each as a fiber, and returns when all
  /// have finished. The calling thread is one of the host threads. If any
  /// rank throws, all others are aborted and the first exception is
  /// rethrown here; a deadlock throws `Error` naming every blocked rank.
  void run(const std::function<void(Comm&)>& rank_main);

  /// Host threads the last run() used: min(ranks, CPUs in the calling
  /// thread's affinity mask); 0 before the first run.
  int host_threads() const { return static_cast<int>(hosts_.size()); }

  /// Virtual completion time of the job: max over rank clocks after run().
  double elapsed_sim_seconds() const;

  /// Per-rank statistics collected during the last run().
  const CommStats& stats(int rank) const;

  /// Installs network-degradation windows: every modeled communication cost
  /// is scaled by `schedule.factor_at(virtual time)`. Set before run();
  /// the default schedule is inert.
  void set_degradation(const netsim::DegradationSchedule& schedule) {
    degradation_ = schedule;
  }
  const netsim::DegradationSchedule& degradation() const {
    return degradation_;
  }

  /// Per-rank compute-cost multiplier: `Comm::compute(s)` charges
  /// `s * fn(rank, virtual time)` instead of `s`. The per-rank speed
  /// skew (resil::SkewPlan) hooks in here. Set before run(); must be a pure
  /// function of its arguments (it is called concurrently from every host
  /// thread). Unset (the default) charges `s` unchanged, so skew-free runs
  /// are bit-identical to builds without the hook.
  using ComputeScaleFn = std::function<double(int rank, double now)>;
  void set_compute_scale(ComputeScaleFn fn) {
    compute_scale_ = std::move(fn);
  }
  const ComputeScaleFn& compute_scale() const { return compute_scale_; }

 private:
  friend class Comm;

  struct Envelope {
    int source = 0;
    int tag = 0;
    std::vector<std::byte> payload;
    /// Sender virtual time at which the message left.
    double depart_time = 0.0;
  };

  struct Fiber;
  struct HostThread;

  /// What a parked fiber waits for: post_send wakes a receiver only for
  /// the message it names, and a deadlock report prints it.
  struct Wait {
    const char* op = nullptr;  // "recv" or the collective; nullptr = running
    int source = 0;            // recv
    int tag = 0;               // recv
  };

  struct Mailbox {
    std::mutex mutex;
    std::deque<Envelope> queue;
    /// The owner, while it is parked in a receive (at most one entry).
    std::vector<Fiber*> waiters;
  };

  // --- point-to-point (called by Comm) ---
  void post_send(int source, int dest, int tag, std::vector<std::byte> payload,
                 double depart_time);
  Envelope blocking_recv(int self, int source, int tag);

  // --- synchronizing collectives ---
  /// Runs once, on the last arrival, over every rank's blocks (indexed by
  /// rank), and leaves in entry r what rank r takes away.
  using CombineFn = std::function<void(std::vector<Blocks>&)>;

  /// One rendezvous of all ranks, entered by `rank`; `name` labels it in
  /// deadlock reports. Every rank contributes `input` and its cost.
  /// Returns what `combine` left for the caller, or its own input when
  /// `combine` is empty; `*exit_time` is max(entry times) + max(costs),
  /// the cost scaled by the degradation factor at max(entry times).
  Blocks collective(const char* name, int rank, Blocks input,
                    const CombineFn& combine, double cost_seconds,
                    double entry_time, double* exit_time);

  /// The world's rendezvous, guarded by coll_mutex_. It is
  /// generation-counted, so it is reusable; each rank reads its result out
  /// of its own entry of `blocks` before it can arrive again.
  struct Rendezvous {
    std::uint64_t generation = 0;
    int arrived = 0;
    std::vector<Blocks> blocks;  // indexed by rank
    double max_entry = 0.0;
    double cost = 0.0;
    double exit = 0.0;
    /// Ranks parked until the last arrival.
    std::vector<Fiber*> waiters;
  };

  // --- the fiber scheduler (runtime.cpp) ---
  void host_loop(HostThread& host);
  void fiber_main(Fiber& self);
  /// Parks `self` on `waiters`, waiting for `wait`, until a waker makes it
  /// ready: the condition-variable wait of a fiber. `lock` guards
  /// `waiters`; it is released while parked and held again on return.
  void park(Fiber& self, std::unique_lock<std::mutex>& lock,
            std::vector<Fiber*>& waiters, const Wait& wait);
  /// Makes every fiber in `waiters` ready again (caller holds the lock that
  /// guards `waiters`); `waker` is the host thread running the caller.
  void wake_all(std::vector<Fiber*>& waiters, HostThread& waker);
  void make_ready(Fiber& fiber, HostThread& waker);
  /// Called when the last ready or running fiber parks or finishes while
  /// others remain: records the deadlock diagnosis and aborts the run.
  void report_deadlock(HostThread& waker);
  void record_error(std::exception_ptr error);

  void abort_all(HostThread& waker);
  void check_abort() const;

  netsim::Topology topology_;
  std::vector<Mailbox> mailboxes_;
  std::vector<SimClock> clocks_;
  std::vector<CommStats> stats_;

  std::mutex coll_mutex_;
  Rendezvous rendezvous_;

  // Per-run scheduler state.
  std::vector<std::unique_ptr<HostThread>> hosts_;
  std::vector<std::unique_ptr<Fiber>> fibers_;  // indexed by rank
  const std::function<void(Comm&)>* rank_main_ = nullptr;
  /// Fibers ready or running (low 32 bits) and fibers not yet finished
  /// (high 32 bits), in one word so every transition is one atomic step:
  /// the run is deadlocked exactly when the low half reaches zero while
  /// the high half does not.
  std::atomic<std::uint64_t> census_{0};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  std::atomic<bool> aborted_{false};
  netsim::DegradationSchedule degradation_;
  ComputeScaleFn compute_scale_;
};

}  // namespace hetero::simmpi
