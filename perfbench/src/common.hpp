#pragma once

// Shared plumbing of the host-time benchmark: clocks, sample statistics,
// resource usage, digests and the result record every workload fills.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "span_trace.hpp"
#include "support/stats.hpp"

namespace perfbench {

/// Host seconds on the steady clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one invocation was asked to do.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase in host seconds.
  double seconds = 10.0;
  /// Per-layer (traced) run instead of the end-to-end run.
  bool trace = false;
  /// Private scratch directory (stores, sockets, reports); the process
  /// works inside it and the caller removes it.
  std::string work_dir;
  /// Where the span dump of a traced run is written.
  std::string span_path;
  /// Pinned svc answers (perfbench/data/svc_answers.tsv).
  std::string pins_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// End-to-end metric this layer metric should move (per-layer only).
  std::string moves;
};

/// Everything a workload reports: the correctness verdict, op tallies and
/// named metrics in the order they were added.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per correctness-gate mismatch.
  std::vector<std::string> mismatches;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& moves = "") {
    metrics.push_back({name, value, unit, moves});
  }
  /// Records a gate: a false `ok` fails the run with `what`.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      mismatches.push_back(what);
    }
  }
};

/// Median of a non-empty sample.
inline double median(std::vector<double> values) {
  return hetero::percentile(std::move(values), 0.5);
}

/// CPU seconds (user + system) this process has run, over all its threads
/// (CLOCK_PROCESS_CPUTIME_ID), plus those of the given live child
/// processes. On a virtual machine the guest kernel leaves out the time the
/// hypervisor gave other guests while ours wanted to run (steal,
/// CONFIG_PARAVIRT_TIME_ACCOUNTING). The clocks still run slower work when
/// the host lowers the core's clock or other guests share the core.
double cpu_s(const std::vector<pid_t>& children = {});

/// Live child processes of this process (/proc/self/task/*/children).
std::vector<pid_t> live_children();

/// CPU seconds the calling thread takes for a fixed chain of dependent
/// integer multiply-adds: how fast the core runs right now. On a shared
/// host the core's clock moves with the host's load, and the CPU time of
/// the same code with it.
double clock_probe_s();

/// A stretch of a run (an rd session, a grid pass, an svc pass): its
/// set-ups, the CPU time of its successful ops, and the CPU time of its
/// timed phase, all on cpu_s(); and the clock probe around it. The
/// wall-clock latencies of the same ops are kept for the printed table
/// only.
struct Unit {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  double timed_s = 0.0;
  std::vector<double> wall_ms;
  /// The faster of two clock_probe_s() readings, one just before the
  /// unit's first set-up and one just after its timed phase.
  double probe_s = 0.0;
};


/// How many set-ups and ops the end-to-end metrics of a workload need.
struct UnitNeeds {
  std::size_t min_setups = 5;
  std::size_t min_ops = 0;
};

/// True while a run should add a unit: until `config.seconds` have passed
/// and its units hold `needs.min_setups` set-ups and `needs.min_ops` ops,
/// but not past 150 s (run.py gives the program 175 s).
bool want_unit(const std::vector<const Unit*>& units, double elapsed_s,
               const RunConfig& config, const UnitNeeds& needs);

/// The units of a workload's repetitions (units, or items with a `unit`
/// member).
template <class T>
std::vector<const Unit*> units_of(const std::vector<T>& items) {
  std::vector<const Unit*> out;
  for (const T& item : items) {
    if constexpr (std::is_same_v<T, Unit>) {
      out.push_back(&item);
    } else {
      out.push_back(&item.unit);
    }
  }
  return out;
}

/// Adds the five end-to-end metrics shared by every workload over all its
/// units, and prints the wall-clock figures of the same ops. Times are
/// CPU time at a reference core clock of 3 GHz: each unit's CPU times are
/// scaled by the clock its probe measured over 3 GHz. Fails the report
/// when the units hold fewer set-ups or ops than `needs`. `tail_pct` is the
/// workload's fixed tail percentile in [0, 100].
void add_end_to_end(Report& report, const std::vector<const Unit*>& units,
                    const UnitNeeds& needs, double tail_pct);

/// Peak resident set in MB of this process (VmHWM, which an exec resets)
/// plus the largest child it reaped (getrusage).
double peak_rss_mb();

/// Current resident set of this process in MB (/proc/self/status VmRSS).
double current_rss_mb();

/// FNV-1a over `bytes`, chained onto `h`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Digest as 16 lower-case hex digits.
std::string hex64(std::uint64_t v);

/// Fails the report unless this process has no child left (waitpid must
/// answer ECHILD): a leaked worker would slow every later run.
void check_no_children(Report& report, const std::string& where);

/// Size of a file in bytes (0 when absent).
double file_bytes(const std::string& path);

/// Workload entry points.
Report run_rd_p27(const RunConfig& config, SpanRecorder* spans);
Report run_grid_full(const RunConfig& config, SpanRecorder* spans);
Report run_svc_restart(const RunConfig& config, SpanRecorder* spans);

/// The pinned answer table of every svc descriptor the stream can carry,
/// computed by the current build (the content of svc_answers.tsv).
std::string svc_pins();

}  // namespace perfbench
