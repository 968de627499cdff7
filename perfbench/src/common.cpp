#include "common.hpp"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "support/error.hpp"

namespace perfbench {

namespace {

/// A run stops adding units after this long, whatever it holds; run.py
/// stops waiting for the program at 175 s.
constexpr double kMaxRunS = 150.0;

/// The clock probe: kProbeSteps steps, each an integer multiply (3 cycles)
/// and an add (1 cycle) on the previous step's result, so 4 cycles a step
/// on current x86-64 cores. About 3 ms at 3 GHz.
constexpr std::uint64_t kProbeSteps = 2'500'000;
constexpr double kProbeCyclesPerStep = 4.0;
constexpr double kReferenceHz = 3e9;

bool enough(const std::vector<const Unit*>& units, const UnitNeeds& needs) {
  std::size_t setups = 0;
  std::size_t ops = 0;
  for (const Unit* u : units) {
    setups += u->setup_s.size();
    ops += u->op_ms.size();
  }
  return setups >= needs.min_setups && ops >= needs.min_ops;
}

double clock_s(clockid_t clock) {
  timespec ts{};
  HETERO_REQUIRE(::clock_gettime(clock, &ts) == 0,
                 "perfbench: cannot read a CPU clock");
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double cpu_s(const std::vector<pid_t>& children) {
  double total = clock_s(CLOCK_PROCESS_CPUTIME_ID);
  for (const pid_t pid : children) {
    clockid_t clock{};
    HETERO_REQUIRE(::clock_getcpuclockid(pid, &clock) == 0,
                   "perfbench: no CPU clock for child " + std::to_string(pid));
    total += clock_s(clock);
  }
  return total;
}

std::vector<pid_t> live_children() {
  std::vector<pid_t> out;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream children(task.path() / "children");
    pid_t pid = 0;
    while (children >> pid) out.push_back(pid);
  }
  return out;
}

double clock_probe_s() {
  std::uint64_t x = 1;
  const double t0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  for (std::uint64_t i = 0; i < kProbeSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Keeps the compiler from folding or reordering the chain.
    asm volatile("" : "+r"(x));
  }
  return clock_s(CLOCK_THREAD_CPUTIME_ID) - t0;
}

bool want_unit(const std::vector<const Unit*>& units, double elapsed_s,
               const RunConfig& config, const UnitNeeds& needs) {
  return (elapsed_s < config.seconds || !enough(units, needs)) &&
         elapsed_s < kMaxRunS;
}

void add_end_to_end(Report& report, const std::vector<const Unit*>& units,
                    const UnitNeeds& needs, double tail_pct) {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  std::vector<double> wall_ms;
  std::vector<double> clock_hz;
  double timed_s = 0.0;
  for (const Unit* u : units) {
    const double hz =
        static_cast<double>(kProbeSteps) * kProbeCyclesPerStep / u->probe_s;
    const double scale = hz / kReferenceHz;
    for (const double s : u->setup_s) setup_s.push_back(s * scale);
    for (const double ms : u->op_ms) op_ms.push_back(ms * scale);
    timed_s += u->timed_s * scale;
    wall_ms.insert(wall_ms.end(), u->wall_ms.begin(), u->wall_ms.end());
    clock_hz.push_back(hz);
  }
  report.check(enough(units, needs),
               std::to_string(setup_s.size()) + " set-ups and " +
                   std::to_string(op_ms.size()) +
                   " ops when the run had to stop: too few to measure");
  // The tail percentile must have at least ten ops beyond it (the
  // tolerance absorbs the rounding of 100 - tail_pct).
  report.check(static_cast<double>(op_ms.size()) * (100.0 - tail_pct) >=
                   1000.0 - 1e-6,
               "only " + std::to_string(op_ms.size()) + " ops: too few for p" +
                   std::to_string(tail_pct));
  if (op_ms.empty() || setup_s.empty()) return;
  report.add("setup_s", median(setup_s), "s");
  report.add("op_p50_ms", median(op_ms), "ms");
  report.add("op_tail_ms", hetero::percentile(op_ms, tail_pct / 100.0), "ms");
  report.add("ops_per_s", static_cast<double>(op_ms.size()) / timed_s, "1/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("  %zu units, %zu set-ups, %zu ops, tail p%g; CPU time of "
              "this process and its workers at 3 GHz; the probe read the "
              "core at %.3g-%.3g GHz (median %.3g)\n",
              units.size(), setup_s.size(), op_ms.size(), tail_pct,
              *std::min_element(clock_hz.begin(), clock_hz.end()) * 1e-9,
              *std::max_element(clock_hz.begin(), clock_hz.end()) * 1e-9,
              median(clock_hz) * 1e-9);
  std::printf("  wall clock: op p50 %.6g ms, p%g %.6g ms\n", median(wall_ms),
              tail_pct, hetero::percentile(wall_ms, tail_pct / 100.0));
}

namespace {

/// A kB field of /proc/self/status (0 when absent).
double status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0.0;
      status >> kb;
      return kb;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return (status_kb("VmHWM:") + static_cast<double>(children.ru_maxrss)) /
         1024.0;
}

double current_rss_mb() { return status_kb("VmRSS:") / 1024.0; }

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_no_children(Report& report, const std::string& where) {
  int status = 0;
  const pid_t pid = ::waitpid(-1, &status, WNOHANG);
  report.check(pid == -1 && errno == ECHILD,
               where + ": a child process outlived its owner");
}

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

}  // namespace perfbench
