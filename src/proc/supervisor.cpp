#include "proc/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/wire.hpp"
#include "support/error.hpp"
#include "support/io_util.hpp"
#include "support/record_log.hpp"
#include "support/shutdown.hpp"
#include "svc/result_codec.hpp"

namespace hetero::proc {

namespace {

using Clock = std::chrono::steady_clock;

/// Most jobs a worker holds unanswered (queued in its pipe or running).
constexpr std::size_t kMaxWindowJobs = 8;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Worker side (runs in the forked child; never returns).
// ---------------------------------------------------------------------------

int g_heartbeat_fd = -1;

extern "C" void proc_heartbeat_tick(int) {
  // Async-signal-safe by construction: one write(2) of one byte on a
  // dedicated nonblocking pipe. A full pipe just drops the tick.
  const int saved_errno = errno;
  if (g_heartbeat_fd >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(g_heartbeat_fd, "h", 1);
  }
  errno = saved_errno;
}

[[noreturn]] void worker_main(std::uint64_t seed, const ProcOptions& options,
                              int job_fd, int result_fd, int heartbeat_fd,
                              const std::string& shard_path) {
  // The child inherits the supervisor's signal state; reset to a clean
  // slate (the shutdown guard blocks SIGINT/SIGTERM in the CLI parent).
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
  sigset_t empty;
  sigemptyset(&empty);
  ::sigprocmask(SIG_SETMASK, &empty, nullptr);
#ifdef __linux__
  // Die with the supervisor even if its shutdown hooks never ran.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) {
    ::_exit(0);  // supervisor died between fork and prctl
  }
#endif
  g_heartbeat_fd = heartbeat_fd;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = proc_heartbeat_tick;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGALRM, &sa, nullptr);
  itimerval timer;
  const long interval_us =
      std::max(1L, static_cast<long>(options.heartbeat_interval_s * 1e6));
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  ::setitimer(ITIMER_REAL, &timer, nullptr);

  support::RecordLog shard(shard_path);
  core::ExperimentRunner runner(seed);
  for (;;) {
    Frame frame;
    if (!recv_frame(job_fd, &frame) || frame.type == FrameType::kShutdown) {
      break;  // supervisor closed the pipe or asked us to drain
    }
    if (frame.type != FrameType::kJob) {
      continue;
    }
    const core::Experiment experiment = decode_experiment(frame.payload);
    const std::string key = core::experiment_cache_key(experiment, seed);
    const ChaosAction action =
        chaos_decide(options.chaos, seed, job_key_hash(key),
                     static_cast<int>(frame.attempt));
    if (action == ChaosAction::kExit) {
      ::_exit(kChaosExitStatus);
    }
    if (action == ChaosAction::kCrash) {
      ::kill(::getpid(), SIGKILL);
    }
    Frame reply;
    reply.job_id = frame.job_id;
    reply.attempt = frame.attempt;
    core::ExperimentResult result;
    try {
      result = runner.run(experiment);
    } catch (const std::exception& ex) {
      reply.type = FrameType::kFail;
      reply.payload = ex.what();
      if (!send_frame(result_fd, reply)) {
        break;
      }
      continue;
    }
    if (action == ChaosAction::kHang) {
      // Stall *mid-experiment*: the work is done but neither the shard nor
      // the supervisor hears about it. Stopping the timer silences the
      // heartbeats so the deadline reaper fires.
      itimerval off;
      std::memset(&off, 0, sizeof(off));
      ::setitimer(ITIMER_REAL, &off, nullptr);
      for (;;) {
        ::pause();
      }
    }
    // Shard first, report second: a crash between the two leaves a record
    // the supervisor harvests instead of re-running the job.
    reply.type = FrameType::kDone;
    reply.payload = svc::encode_result(result);
    shard.append(key, reply.payload);
    if (!send_frame(result_fd, reply)) {
      break;
    }
  }
  shard.flush();
  ::_exit(0);
}

std::string describe_exit(int status, bool hung, double timeout_s) {
  if (hung) {
    return "hung: no heartbeat for " + std::to_string(timeout_s) + "s";
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  return "unknown wait status " + std::to_string(status);
}

}  // namespace

// ---------------------------------------------------------------------------
// Supervisor side.
// ---------------------------------------------------------------------------

struct Supervisor::Impl {
  std::uint64_t seed;
  ProcOptions options;
  bool own_shard_dir = false;
  int shutdown_token = -1;

  struct Slot {
    pid_t pid = -1;
    int job_fd = -1;
    int result_fd = -1;
    int heartbeat_fd = -1;
    bool alive = false;
    Clock::time_point last_heartbeat{};
    Clock::time_point respawn_at{};
    int consecutive_deaths = 0;
    /// Capacity of the job pipe, the cap on window_bytes.
    std::size_t pipe_bytes = PIPE_BUF;
    std::deque<std::size_t> queue;   // batch-local job ids not yet sent
    std::deque<std::size_t> window;  // sent and unanswered, in send order
    std::size_t window_bytes = 0;    // job-frame bytes of the window
    std::string shard_path;
    std::unique_ptr<support::RecordLog> shard;  // supervisor-side reader
  };
  std::vector<Slot> slots;
  /// Written at spawn/death, read by kill_workers() from the shutdown
  /// watcher thread without any slot lock.
  std::unique_ptr<std::atomic<pid_t>[]> live_pids;

  std::mutex exec_mutex;  // one batch in flight at a time

  /// Results harvested from shard logs: cache key -> encoded result.
  std::unordered_map<std::string, std::string> shard_index;
  /// Worker deaths caused per cache key (drives retry attempt numbers and
  /// the quarantine threshold); persists across batches.
  std::unordered_map<std::string, int> crash_counts;

  mutable std::mutex stats_mutex;
  ProcStats stats;

  obs::Counter& dispatched_count = obs::metrics().counter("proc.jobs_dispatched");
  obs::Counter& respawn_count = obs::metrics().counter("proc.respawns");
  obs::Counter& redispatch_count = obs::metrics().counter("proc.redispatches");
  obs::Counter& quarantine_count = obs::metrics().counter("proc.quarantines");
  obs::Counter& crash_count = obs::metrics().counter("proc.worker_crashes");
  obs::Counter& shard_replay_count = obs::metrics().counter("proc.shard_replays");
  obs::Histogram& heartbeat_latency =
      obs::metrics().histogram("proc.heartbeat_latency_s");

  void count(std::uint64_t ProcStats::*field) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++(stats.*field);
  }
  void spawn(std::size_t index);
  void harvest(std::size_t index);
  bool replay(struct Batch& batch, std::size_t job_id);
  void dispatch(std::size_t index, Batch& batch);
  void settle_reply(Slot& slot, const Frame& frame, Batch& batch,
                    Clock::time_point now);
  void death(std::size_t index, bool hung, Batch& batch);
  double backoff_s(int consecutive_deaths) const;
};

/// Per-execute() bookkeeping.
struct Batch {
  struct Job {
    const core::Experiment* experiment = nullptr;
    std::string key;
    std::size_t slot = 0;
    std::string payload;  // encoded experiment
    /// The next send counts as a dispatch: true for the first send and
    /// after a crash is charged, false when the job is only re-sent
    /// because it sat behind the job that killed its worker.
    bool dispatch_due = true;
    core::ExecOutcome outcome;
    bool done = false;
  };
  std::vector<Job> jobs;           // unique keys, dispatch order
  std::size_t pending = 0;
};

double Supervisor::Impl::backoff_s(int consecutive_deaths) const {
  double delay = options.respawn_backoff_base_s;
  for (int i = 1; i < consecutive_deaths; ++i) {
    delay *= 2.0;
    if (delay >= options.respawn_backoff_cap_s) {
      break;
    }
  }
  return std::min(delay, options.respawn_backoff_cap_s);
}

void Supervisor::Impl::spawn(std::size_t index) {
  Slot& slot = slots[index];
  int job_pipe[2];
  int result_pipe[2];
  int heartbeat_pipe[2];
  HETERO_REQUIRE(::pipe(job_pipe) == 0 && ::pipe(result_pipe) == 0 &&
                     ::pipe(heartbeat_pipe) == 0,
                 "proc: cannot create worker pipes");
  // Heartbeats are fire-and-forget: the writer must never block in a
  // signal handler (drop on full), the reader drains without blocking.
  ::fcntl(heartbeat_pipe[1], F_SETFL, O_NONBLOCK);
  ::fcntl(heartbeat_pipe[0], F_SETFL, O_NONBLOCK);
  const pid_t pid = ::fork();
  HETERO_REQUIRE(pid >= 0, "proc: fork failed");
  if (pid == 0) {
    // Child: drop every parent-side fd, including the other workers' pipe
    // ends — a sibling holding a dead worker's write end would defeat the
    // supervisor's EOF-based death detection.
    ::close(job_pipe[1]);
    ::close(result_pipe[0]);
    ::close(heartbeat_pipe[0]);
    for (const Slot& other : slots) {
      if (other.job_fd >= 0) ::close(other.job_fd);
      if (other.result_fd >= 0) ::close(other.result_fd);
      if (other.heartbeat_fd >= 0) ::close(other.heartbeat_fd);
    }
    try {
      worker_main(seed, options, job_pipe[0], result_pipe[1],
                  heartbeat_pipe[1], slot.shard_path);
    } catch (...) {
      ::_exit(127);
    }
  }
  ::close(job_pipe[0]);
  ::close(result_pipe[1]);
  ::close(heartbeat_pipe[1]);
  slot.pid = pid;
  slot.job_fd = job_pipe[1];
  slot.result_fd = result_pipe[0];
  slot.heartbeat_fd = heartbeat_pipe[0];
#ifdef F_GETPIPE_SZ
  const int pipe_bytes = ::fcntl(slot.job_fd, F_GETPIPE_SZ);
  slot.pipe_bytes = pipe_bytes > 0 ? static_cast<std::size_t>(pipe_bytes)
                                   : std::size_t{PIPE_BUF};
#endif
  slot.alive = true;
  slot.last_heartbeat = Clock::now();
  live_pids[index].store(pid, std::memory_order_release);
  obs::trace_instant("worker_spawn", "proc", 0.0, "slot",
                     static_cast<double>(index));
}

void Supervisor::Impl::harvest(std::size_t index) {
  Slot& slot = slots[index];
  if (slot.shard == nullptr) {
    return;
  }
  slot.shard->recover([this](std::string key, std::string value) {
    shard_index.insert_or_assign(std::move(key), std::move(value));
  });
}

bool Supervisor::Impl::replay(Batch& batch, std::size_t job_id) {
  Batch::Job& job = batch.jobs[job_id];
  const auto it = shard_index.find(job.key);
  if (it == shard_index.end()) {
    return false;
  }
  try {
    job.outcome.result = svc::decode_result(it->second);
  } catch (const std::exception&) {
    return false;  // unreadable shard record (e.g. older codec): recompute
  }
  job.done = true;
  count(&ProcStats::shard_replays);
  shard_replay_count.increment();
  return true;
}

void Supervisor::Impl::dispatch(std::size_t index, Batch& batch) {
  Slot& slot = slots[index];
  while (slot.alive && !slot.queue.empty() &&
         slot.window.size() < kMaxWindowJobs) {
    const std::size_t j = slot.queue.front();
    Batch::Job& job = batch.jobs[j];
    const std::size_t bytes = kFrameHeaderBytes + job.payload.size();
    // Unanswered frames never outgrow the pipe, so this write cannot
    // block while the worker blocks on a full result pipe. A lone frame
    // always goes: the worker is free to read it as it is written.
    if (!slot.window.empty() && slot.window_bytes + bytes > slot.pipe_bytes) {
      break;
    }
    slot.queue.pop_front();
    if (slot.window.empty()) {
      slot.last_heartbeat = Clock::now();
    }
    slot.window.push_back(j);
    slot.window_bytes += bytes;
    Frame frame;
    frame.type = FrameType::kJob;
    frame.job_id = j;
    frame.attempt = static_cast<std::uint32_t>(crash_counts[job.key]);
    frame.payload = job.payload;
    // A failed send surfaces as pipe EOF in the poll loop.
    send_frame(slot.job_fd, frame);
    if (job.dispatch_due) {
      job.dispatch_due = false;
      count(&ProcStats::jobs_dispatched);
      dispatched_count.increment();
    }
  }
}

void Supervisor::Impl::settle_reply(Slot& slot, const Frame& frame,
                                    Batch& batch, Clock::time_point now) {
  // Workers answer in send order: a reply settles the window's oldest job.
  if (slot.window.empty() || frame.job_id != slot.window.front() ||
      (frame.type != FrameType::kDone && frame.type != FrameType::kFail)) {
    return;
  }
  Batch::Job& job = batch.jobs[frame.job_id];
  if (frame.type == FrameType::kDone) {
    job.outcome.result = svc::decode_result(frame.payload);
  } else {
    job.outcome.failed = true;
    job.outcome.error = frame.payload;
  }
  job.done = true;
  --batch.pending;
  slot.window.pop_front();
  slot.window_bytes -= kFrameHeaderBytes + job.payload.size();
  slot.consecutive_deaths = 0;
  slot.last_heartbeat = now;
  count(&ProcStats::results_completed);
}

void Supervisor::Impl::death(std::size_t index, bool hung, Batch& batch) {
  Slot& slot = slots[index];
  live_pids[index].store(-1, std::memory_order_release);
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(slot.pid, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  // Replies the worker sent before it died may still sit in the result
  // pipe (a hang kill does not wait for them). The pipe now holds all it
  // ever will, so read it without blocking: a torn last frame ends it.
  ::fcntl(slot.result_fd, F_SETFL, O_NONBLOCK);
  Frame frame;
  while (!slot.window.empty() && recv_frame(slot.result_fd, &frame)) {
    settle_reply(slot, frame, batch, Clock::now());
  }
  ::close(slot.job_fd);
  ::close(slot.result_fd);
  ::close(slot.heartbeat_fd);
  slot.job_fd = slot.result_fd = slot.heartbeat_fd = -1;
  slot.alive = false;
  slot.pid = -1;
  count(&ProcStats::worker_crashes);
  if (hung) {
    count(&ProcStats::hung_workers);
  }
  crash_count.increment();
  const std::string reason =
      describe_exit(status, hung, options.heartbeat_timeout_s);
  obs::trace_instant("worker_death", "proc", 0.0, "slot",
                     static_cast<double>(index));
  // The worker may have finished (and sharded) jobs it never got to
  // report; pick those up before deciding the rest of the window's fate.
  harvest(index);
  std::deque<std::size_t> unsettled;
  for (const std::size_t j : slot.window) {
    if (replay(batch, j)) {
      --batch.pending;
    } else {
      unsettled.push_back(j);
    }
  }
  slot.window.clear();
  slot.window_bytes = 0;
  // The worker ran its window in order, so the oldest unsettled job is the
  // one it died on: only that job is charged the crash. The jobs behind it
  // never started and go back to the queue uncharged, in order.
  if (!unsettled.empty()) {
    Batch::Job& job = batch.jobs[unsettled.front()];
    const int crashes = ++crash_counts[job.key];
    if (crashes >= options.max_crashes_per_job) {
      job.outcome.result = core::ExperimentResult{};
      job.outcome.result.launched = false;
      job.outcome.result.failure_reason =
          "quarantined: experiment killed its worker " +
          std::to_string(crashes) + " times (last: " + reason + ")";
      job.done = true;
      --batch.pending;
      unsettled.pop_front();
      count(&ProcStats::quarantined);
      quarantine_count.increment();
      obs::trace_instant("job_quarantine", "proc", 0.0, "crashes",
                         static_cast<double>(crashes));
    } else {
      job.dispatch_due = true;
      count(&ProcStats::redispatches);
      redispatch_count.increment();
      obs::trace_instant("job_redispatch", "proc", 0.0, "attempt",
                         static_cast<double>(crashes));
    }
  }
  slot.queue.insert(slot.queue.begin(), unsettled.begin(), unsettled.end());
  ++slot.consecutive_deaths;
  slot.respawn_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             backoff_s(slot.consecutive_deaths)));
}

int resolve_workers(int requested) {
  if (requested >= 0) {
    return requested;
  }
  if (const char* env = std::getenv("HETEROLAB_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && end != env && *end == '\0' && v > 0) {
      return static_cast<int>(v);
    }
  }
  return 0;
}

std::unique_ptr<Supervisor> make_supervisor(int requested_workers,
                                            std::uint64_t runner_seed,
                                            ProcOptions options) {
  const int workers = resolve_workers(requested_workers);
  if (workers <= 0) {
    return nullptr;
  }
  options.workers = workers;
  return std::make_unique<Supervisor>(runner_seed, std::move(options));
}

Supervisor::Supervisor(std::uint64_t runner_seed, ProcOptions options)
    : impl_(std::make_unique<Impl>()) {
  HETERO_REQUIRE(options.workers >= 1,
                 "proc: workers must be >= 1 (use the in-process pool for 0)");
  HETERO_REQUIRE(options.heartbeat_interval_s > 0.0 &&
                     options.heartbeat_timeout_s >
                         options.heartbeat_interval_s,
                 "proc: heartbeat timeout must exceed the interval");
  HETERO_REQUIRE(options.max_crashes_per_job >= 1,
                 "proc: max_crashes_per_job must be >= 1");
  if (!options.chaos.any()) {
    options.chaos = chaos_spec_from_env();
  }
  impl_->seed = runner_seed;
  impl_->options = options;
  // Workers that die mid-frame would otherwise kill the supervisor with
  // SIGPIPE on the next dispatch; the write error is handled instead.
  ::signal(SIGPIPE, SIG_IGN);
  if (impl_->options.shard_dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string templ = (tmp != nullptr && *tmp != '\0' ? std::string(tmp)
                                                        : std::string("/tmp")) +
                        "/hetero-proc-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    HETERO_REQUIRE(::mkdtemp(buf.data()) != nullptr,
                   "proc: cannot create shard directory");
    impl_->options.shard_dir = buf.data();
    impl_->own_shard_dir = true;
  } else {
    ::mkdir(impl_->options.shard_dir.c_str(), 0755);  // EEXIST is fine
  }
  impl_->slots.resize(static_cast<std::size_t>(impl_->options.workers));
  impl_->live_pids = std::make_unique<std::atomic<pid_t>[]>(
      static_cast<std::size_t>(impl_->options.workers));
  for (std::size_t s = 0; s < impl_->slots.size(); ++s) {
    impl_->live_pids[s].store(-1, std::memory_order_relaxed);
    Impl::Slot& slot = impl_->slots[s];
    slot.shard_path = impl_->options.shard_dir + "/shard-" +
                      std::to_string(s) + ".log";
    slot.shard = std::make_unique<support::RecordLog>(slot.shard_path);
    impl_->harvest(s);
  }
  for (std::size_t s = 0; s < impl_->slots.size(); ++s) {
    impl_->spawn(s);
  }
  impl_->shutdown_token =
      support::add_shutdown_hook([this] { kill_workers(); });
}

Supervisor::~Supervisor() {
  support::remove_shutdown_hook(impl_->shutdown_token);
  for (std::size_t s = 0; s < impl_->slots.size(); ++s) {
    Impl::Slot& slot = impl_->slots[s];
    const pid_t pid = impl_->live_pids[s].exchange(-1);
    if (pid > 0) {
      // Abrupt is safe: completed work lives in the shard logs, and the
      // recovery path truncates any torn tail on the next open.
      ::kill(pid, SIGKILL);
      int status = 0;
      pid_t reaped;
      do {
        reaped = ::waitpid(pid, &status, 0);
      } while (reaped < 0 && errno == EINTR);
    }
    if (slot.job_fd >= 0) ::close(slot.job_fd);
    if (slot.result_fd >= 0) ::close(slot.result_fd);
    if (slot.heartbeat_fd >= 0) ::close(slot.heartbeat_fd);
    slot.shard.reset();
    if (impl_->own_shard_dir) {
      ::unlink(slot.shard_path.c_str());
    }
  }
  if (impl_->own_shard_dir) {
    ::rmdir(impl_->options.shard_dir.c_str());
  }
}

void Supervisor::kill_workers() {
  for (std::size_t s = 0; s < impl_->slots.size(); ++s) {
    const pid_t pid = impl_->live_pids[s].exchange(-1);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
    }
  }
}

int Supervisor::workers() const { return impl_->options.workers; }

ProcStats Supervisor::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->stats;
}

std::vector<core::ExecOutcome> Supervisor::execute(
    const std::vector<core::Experiment>& batch_in) {
  std::lock_guard<std::mutex> exec_lock(impl_->exec_mutex);
  Impl& im = *impl_;
  Batch batch;
  // Identical descriptors are computed once; item_job maps every input
  // index to its (unique-keyed) job.
  std::vector<std::size_t> item_job(batch_in.size());
  std::unordered_map<std::string, std::size_t> job_by_key;
  for (std::size_t i = 0; i < batch_in.size(); ++i) {
    const std::string key = core::experiment_cache_key(batch_in[i], im.seed);
    const auto it = job_by_key.find(key);
    if (it != job_by_key.end()) {
      item_job[i] = it->second;
      continue;
    }
    const std::size_t id = batch.jobs.size();
    job_by_key.emplace(key, id);
    item_job[i] = id;
    Batch::Job& job = batch.jobs.emplace_back();
    job.experiment = &batch_in[i];
    job.key = key;
    job.slot = static_cast<std::size_t>(
        job_key_hash(key) % static_cast<std::uint64_t>(im.slots.size()));
    if (!im.replay(batch, id)) {
      job.payload = encode_experiment(*job.experiment);
      ++batch.pending;
      im.slots[job.slot].queue.push_back(id);
    }
  }

  const auto heartbeat_timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(im.options.heartbeat_timeout_s));
  while (batch.pending > 0) {
    const Clock::time_point now = Clock::now();
    // Respawn dead slots whose backoff elapsed and that have work.
    for (std::size_t s = 0; s < im.slots.size(); ++s) {
      Impl::Slot& slot = im.slots[s];
      if (!slot.alive && !slot.queue.empty() && now >= slot.respawn_at) {
        im.spawn(s);
        im.count(&ProcStats::respawns);
        im.respawn_count.increment();
      }
    }
    for (std::size_t s = 0; s < im.slots.size(); ++s) {
      im.dispatch(s, batch);
    }
    // Wait for results, heartbeats, deaths — bounded by the nearest
    // deadline (hung-worker check or pending respawn).
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_slot;
    Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(200);
    for (std::size_t s = 0; s < im.slots.size(); ++s) {
      Impl::Slot& slot = im.slots[s];
      if (slot.alive) {
        fds.push_back({slot.result_fd, POLLIN, 0});
        fd_slot.push_back(s);
        fds.push_back({slot.heartbeat_fd, POLLIN, 0});
        fd_slot.push_back(s);
        if (!slot.window.empty()) {
          deadline = std::min(deadline, slot.last_heartbeat + heartbeat_timeout);
        }
      } else if (!slot.queue.empty()) {
        deadline = std::min(deadline, slot.respawn_at);
      }
    }
    const double wait_s =
        std::max(0.001, seconds_between(Clock::now(), deadline));
    const int timeout_ms = static_cast<int>(wait_s * 1000.0) + 1;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      HETERO_REQUIRE(false, "proc: poll failed in supervisor loop");
    }
    const Clock::time_point after = Clock::now();
    for (std::size_t f = 0; f < fds.size() && ready > 0; ++f) {
      if (fds[f].revents == 0) {
        continue;
      }
      const std::size_t s = fd_slot[f];
      Impl::Slot& slot = im.slots[s];
      if (!slot.alive) {
        continue;  // already handled via an earlier fd this round
      }
      if (fds[f].fd == slot.heartbeat_fd) {
        char buf[256];
        ssize_t n;
        bool got = false;
        while ((n = ::read(slot.heartbeat_fd, buf, sizeof(buf))) > 0) {
          got = true;
        }
        if (got) {
          im.heartbeat_latency.observe(
              seconds_between(slot.last_heartbeat, after));
          slot.last_heartbeat = after;
        }
        continue;
      }
      if (fds[f].fd != slot.result_fd) {
        continue;  // fd belongs to a slot respawned this round
      }
      if ((fds[f].revents & POLLIN) != 0) {
        Frame frame;
        if (recv_frame(slot.result_fd, &frame)) {
          im.settle_reply(slot, frame, batch, after);
          continue;
        }
        im.death(s, /*hung=*/false, batch);
        continue;
      }
      if ((fds[f].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
        im.death(s, /*hung=*/false, batch);
      }
    }
    // Heartbeat deadlines: a live worker with unanswered jobs and no
    // heartbeat past the timeout is hung — SIGKILL and treat as a death.
    for (std::size_t s = 0; s < im.slots.size(); ++s) {
      Impl::Slot& slot = im.slots[s];
      if (slot.alive && !slot.window.empty() &&
          after - slot.last_heartbeat > heartbeat_timeout) {
        ::kill(slot.pid, SIGKILL);
        im.death(s, /*hung=*/true, batch);
      }
    }
  }

  std::vector<core::ExecOutcome> outcomes(batch_in.size());
  for (std::size_t i = 0; i < batch_in.size(); ++i) {
    outcomes[i] = batch.jobs[item_job[i]].outcome;
  }
  return outcomes;
}

}  // namespace hetero::proc
