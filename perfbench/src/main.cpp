// Host-time benchmark program: runs one workload for a fixed time, checks
// its outputs, and prints a metrics table followed by one JSON line
// (end-to-end metrics, or per-layer metrics of a traced run).
//
//   perfbench --workload rd_p27|grid_full|svc_restart --seed N --seconds S
//             --trace 0|1 --work-dir DIR --pins FILE [--spans FILE]
//   perfbench --pin-svc      (prints the svc answer table of this build)
//
// perfbench/run.py builds this program and supplies the paths.

#include <sched.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "common.hpp"
#include "obs/json.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

namespace {

using namespace perfbench;

/// The largest share of traced op time that may lie outside every layer
/// span. Over it, the per-layer report misses a layer the op spends time
/// in. The workloads leave 0.001-0.5%.
constexpr double kMaxUnattributed = 0.02;

struct LayerMetric {
  const char* name;
  const char* unit;
};

struct WorkloadLayers {
  /// The workload whose layers these metrics measure; "" for the trace's
  /// own metrics, which every workload reports.
  const char* workload;
  std::vector<LayerMetric> metrics;
};

/// Every per-layer metric BENCHMARK.json lists, by workload.
const WorkloadLayers kLayers[] = {
    {"rd_p27",
     {{"simmpi.spawn_join_s", "s"}, {"apps.setup_s", "s"},
      {"apps.warmup_s", "s"}, {"apps.step_cpu_s", "s"},
      {"simmpi.sys_cpu_s", "s"}, {"simmpi.wait_s", "s"},
      {"simmpi.ctx_switches", "count"}, {"apps.rank_imbalance", "ratio"},
      {"simmpi.messages", "count"}, {"simmpi.bytes", "B"},
      {"simmpi.collectives", "count"}, {"solvers.iterations", "count"},
      {"la.spmv_flops", "flop"}, {"la.spmv_bytes", "B"},
      {"la.halo_bytes", "B"}, {"fem.assembly_flops", "flop"},
      {"fem.assembly_bytes", "B"}, {"rd_p1.step_cpu_s", "s"},
      {"mem.setup_rss_mb", "MB"}}},
    {"grid_full",
     {{"grid.expand_s", "s"}, {"proc.spawn_s", "s"},
      {"svc.store_open_s", "s"}, {"proc.execute_s", "s"},
      {"core.experiment_s", "s"}, {"core.engine_s", "s"},
      {"svc.store_save_s", "s"}, {"svc.store_saves", "count"},
      {"svc.store_bytes", "B"}, {"grid.build_report_s", "s"},
      {"grid.write_report_s", "s"}, {"grid.report_bytes", "B"},
      {"core.cache_hits", "count"}, {"core.cache_misses", "count"},
      {"proc.dispatched", "count"}, {"proc.crashes", "count"},
      {"proc.respawns", "count"}, {"proc.replays", "count"},
      {"proc.quarantined", "count"}, {"proc.worker_cpu_s", "s"}}},
    {"svc_restart",
     {{"svc.recover_s", "s"}, {"svc.recovered_records", "count"},
      {"svc.process_s", "s"}, {"svc.transport_s", "s"},
      {"broker.recommend_s", "s"}, {"broker.candidates", "count"},
      {"svc.memo_lookups", "count"}, {"svc.memo_hits", "count"},
      {"svc.memo_appends", "count"}, {"svc.inflight_joins", "count"},
      {"core.store_hits", "count"}, {"svc.errors", "count"}}},
    {"",
     {{"trace.overhead_pct", "%"}, {"trace.ops", "count"},
      {"trace.spans_per_op", "count"}, {"trace.unattributed_share", "ratio"}}},
};

/// Adds the span-derived metrics of a traced run and gates the self-time
/// coverage of its ops.
void add_span_metrics(Report& report, const SpanRecorder& spans) {
  const SpanAnalysis a = analyse(spans.spans(), "op");
  report.check(a.ops > 0, "trace: no traced op");
  const double unattributed = a.op_s > 0 ? a.unattributed_s / a.op_s : 1.0;
  report.check(unattributed <= kMaxUnattributed,
               "trace: " + std::to_string(unattributed * 100) +
                   "% of traced op time lies outside every layer span");
  report.add("trace.ops", static_cast<double>(a.ops), "count", "-");
  report.add("trace.spans_per_op",
             a.ops > 0 ? static_cast<double>(a.op_spans) / a.ops : 0.0,
             "count", "-");
  report.add("trace.unattributed_share", unattributed, "ratio", "op_p50_ms");
  std::cout << "\nspans (" << a.ops << " traced ops, " << a.op_s << " s):\n";
  for (const auto& [name, self] : a.self_s) {
    std::printf("  %-22s %8llu spans  total %10.6f s  self %10.6f s\n",
                name.c_str(),
                static_cast<unsigned long long>(a.count.at(name)),
                a.total_s.at(name), self);
  }
}

/// Gates that a traced run reported every metric of its own workload's
/// layers and of the trace, and reports 0 for the other workloads' layers:
/// the prediction that this workload does not move them.
void add_other_layers(Report& report, const std::string& workload) {
  std::map<std::string, std::string> reported;
  for (const Metric& m : report.metrics) reported[m.name] = m.unit;
  for (const WorkloadLayers& layers : kLayers) {
    const bool own = layers.workload == workload || *layers.workload == '\0';
    for (const LayerMetric& m : layers.metrics) {
      if (!own) {
        report.add(m.name, 0.0, m.unit, "no change predicted");
        continue;
      }
      const auto it = reported.find(m.name);
      report.check(it != reported.end() && it->second == m.unit,
                   workload + ": no per-layer metric " + m.name + " [" +
                       m.unit + "]");
    }
  }
}

/// Busy (user .. softirq, guest time included) and stolen ticks of all
/// vCPUs (/proc/stat).
std::pair<std::uint64_t, std::uint64_t> busy_and_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return {0, 0};
    if (field == 7) {
      steal = v;
    } else if (field != 3 && field != 4) {
      busy += v;
    }
  }
  return {busy, steal};
}

/// Share of the CPU time this guest wanted (busy plus stolen ticks) that
/// the hypervisor gave to other guests since construction. Printed with
/// the wall-clock figures of a run, which it inflates and the CPU-time
/// metrics leave out.
class HostSteal {
 public:
  HostSteal() { std::tie(busy_, steal_) = busy_and_steal_ticks(); }
  double share() const {
    const auto [busy, steal] = busy_and_steal_ticks();
    const double wanted =
        static_cast<double>((busy - busy_) + (steal - steal_));
    return wanted > 0 ? static_cast<double>(steal - steal_) / wanted : 0.0;
  }

 private:
  std::uint64_t busy_ = 0;
  std::uint64_t steal_ = 0;
};

/// Device interrupts each CPU has handled (/proc/interrupts rows with a
/// numbered IRQ), indexed by CPU.
std::map<int, unsigned long long> device_interrupts() {
  std::ifstream in("/proc/interrupts");
  std::string line;
  std::vector<int> cpus;
  if (std::getline(in, line)) {
    std::istringstream header(line);
    std::string name;
    while (header >> name) cpus.push_back(std::stoi(name.substr(3)));
  }
  std::map<int, unsigned long long> out;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string irq;
    row >> irq;
    if (irq.empty() || !std::isdigit(static_cast<unsigned char>(irq[0]))) {
      continue;
    }
    for (const int cpu : cpus) {
      unsigned long long n = 0;
      if (!(row >> n)) break;
      out[cpu] += n;
    }
  }
  return out;
}

/// Pins this process to one CPU before it starts any thread or worker, so
/// every rank thread, daemon thread and worker process runs there too:
/// the allowed CPU that has handled the fewest device interrupts, whose
/// handling the kernel charges to the running task. On a shared virtual
/// machine a vCPU that halts whenever the program's threads wait on each
/// other pays the hypervisor's delay to run it again on every wake-up; a
/// vCPU kept busy does not. Returns the CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  HETERO_REQUIRE(::sched_getaffinity(0, sizeof(allowed), &allowed) == 0,
                 "perfbench: cannot read the CPU affinity");
  const std::map<int, unsigned long long> interrupts = device_interrupts();
  int best = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    const auto count = [&](int c) {
      const auto it = interrupts.find(c);
      return it == interrupts.end() ? 0ULL : it->second;
    };
    if (best < 0 || count(cpu) < count(best)) best = cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  HETERO_REQUIRE(::sched_setaffinity(0, sizeof(one), &one) == 0,
                 "perfbench: cannot pin to CPU " + std::to_string(best));
  return best;
}

void print_report(const Report& report) {
  std::cout << "\n";
  for (const Metric& m : report.metrics) {
    std::printf("  %-26s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.moves.empty() ? "" : ("-> " + m.moves).c_str());
  }
  std::printf("  ops: %llu attempted, %llu failed; correct: %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "yes" : "NO");
  for (const std::string& m : report.mismatches) {
    std::cerr << "perfbench: mismatch: " << m << "\n";
  }
  // A gate mismatch fails the run instead of printing numbers.
  hetero::obs::Json metrics = hetero::obs::Json::object();
  for (const Metric& m : report.correct ? report.metrics : std::vector<Metric>{}) {
    hetero::obs::Json entry = hetero::obs::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  hetero::obs::Json out = hetero::obs::Json::object();
  out.set("correct", report.correct);
  out.set("attempted", report.attempted);
  out.set("failed", report.failed);
  out.set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const hetero::CliArgs args(argc, argv);
    if (args.has("pin-svc")) {
      std::cout << svc_pins();
      return 0;
    }
    RunConfig config;
    config.workload = args.get_string("workload", "");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.seconds = args.get_double("seconds", 10.0);
    config.trace = args.get_int("trace", 0) != 0;
    config.work_dir = args.get_string("work-dir", "");
    config.pins_path = args.get_string("pins", "");
    config.span_path = args.get_string("spans", "");
    HETERO_REQUIRE(!config.work_dir.empty(), "perfbench: --work-dir is required");
    HETERO_REQUIRE(config.seconds > 0.0, "perfbench: --seconds must be positive");
    // Stores, sockets and worker shard logs all live in the work dir.
    HETERO_REQUIRE(::setenv("TMPDIR", config.work_dir.c_str(), 1) == 0 &&
                       ::chdir(config.work_dir.c_str()) == 0,
                   "perfbench: cannot enter " + config.work_dir);

    std::printf("  pinned to CPU %d\n", pin_to_one_cpu());
    const HostSteal steal;

    SpanRecorder recorder;
    SpanRecorder* spans = config.trace ? &recorder : nullptr;
    Report report;
    if (config.workload == "rd_p27") {
      report = run_rd_p27(config, spans);
    } else if (config.workload == "grid_full") {
      report = run_grid_full(config, spans);
    } else if (config.workload == "svc_restart") {
      report = run_svc_restart(config, spans);
    } else {
      std::cerr << "perfbench: unknown workload '" << config.workload << "'\n";
      return 2;
    }
    std::printf("  the host stole %.1f%% of the CPU time this guest wanted\n",
                steal.share() * 100);
    if (config.trace) {
      add_span_metrics(report, recorder);
      add_other_layers(report, config.workload);
      if (!config.span_path.empty()) recorder.write_jsonl(config.span_path);
    }
    print_report(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
