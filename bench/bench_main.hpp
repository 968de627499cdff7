#pragma once

/// \file bench_main.hpp
/// Shared output plumbing for the bench binaries. Every main funnels its
/// tables through a BenchOutput, which renders to stdout (aligned text, or
/// CSV under `--csv`) and — when `--json <path>` is given — also appends
/// one schema-versioned JSONL record per table row, the machine-readable
/// results that `tools/check_bench.py` gates CI on. The host-time benches
/// share its timing helpers: one pinned CPU, the process CPU clock, and
/// medians of paired runs.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign_engine.hpp"
#include "obs/bench_io.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace hetero::bench {

/// Engine every bench evaluates experiments through: `--jobs N` (or
/// HETEROLAB_JOBS, or the hardware thread count) workers, memoizing, with
/// output byte-identical at any jobs level.
inline core::CampaignEngine make_engine(const CliArgs& args,
                                        std::uint64_t seed = 42) {
  core::CampaignEngineOptions opt;
  opt.jobs = static_cast<int>(args.get_int("jobs", 0));
  return core::CampaignEngine(seed, opt);
}

/// CPU time of the whole process (every thread). Pinned to one CPU, this
/// is the time the process ran, minus what other guests stole.
inline double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Pins the process to one CPU; call it before any thread starts, so every
/// thread runs there too. Picks the allowed CPU that has handled the fewest
/// device interrupts (/proc/interrupts rows with a numbered IRQ), whose
/// handling the kernel charges to the running task. Returns the CPU, or -1
/// when the affinity cannot be read or set.
inline int pin_to_quietest_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  std::map<int, unsigned long long> interrupts;
  std::ifstream in("/proc/interrupts");
  std::string line;
  std::vector<int> cpus;  // the CPU of each count column
  if (std::getline(in, line)) {
    std::istringstream header(line);
    std::string name;
    while (header >> name) {
      cpus.push_back(std::stoi(name.substr(3)));  // "CPU3"
    }
  }
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string irq;
    row >> irq;
    if (irq.empty() || !std::isdigit(static_cast<unsigned char>(irq[0]))) {
      continue;
    }
    for (const int cpu : cpus) {
      unsigned long long n = 0;
      if (!(row >> n)) {
        break;
      }
      interrupts[cpu] += n;
    }
  }
  int best = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) &&
        (best < 0 || interrupts[cpu] < interrupts[best])) {
      best = cpu;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? best : -1;
}

class BenchOutput {
 public:
  /// `bench_name` becomes the "bench" field of every JSONL record.
  BenchOutput(const CliArgs& args, std::string bench_name)
      : csv_(args.get_bool("csv", false)),
        reporter_(args, std::move(bench_name)) {}

  bool csv() const { return csv_; }

  /// Renders the table to stdout and records its rows for the JSONL report.
  /// `series` tags the records of benches that emit several tables.
  void emit(const Table& table, const std::string& series = "") {
    if (csv_) {
      table.render_csv(std::cout);
    } else {
      table.render_text(std::cout);
    }
    reporter_.add_table(table, series);
  }

  /// Records table rows for the JSONL report without printing (for
  /// supplementary tables the text output renders differently).
  void record(const Table& table, const std::string& series = "") {
    reporter_.add_table(table, series);
  }

  /// Records one hand-built datapoint (non-tabular results).
  void record(obs::Json record) { reporter_.add_record(std::move(record)); }

 private:
  bool csv_;
  obs::BenchReporter reporter_;
};

}  // namespace hetero::bench
