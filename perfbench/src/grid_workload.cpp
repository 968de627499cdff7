// grid_full: every pass evaluates the full 16,200-cell grid matrix through
// grid::run_cells on a CampaignEngine backed by 4 supervised worker
// processes and a fresh memo store, then builds and writes the
// heterolab-grid-v1 report. The op is one 512-cell shard (the engine batch
// and resume granularity). The matrix is the standing one (matrix seed 42);
// the benchmark seed permutes the order the shards are submitted in, and
// the report, built in cell-index order, must not change.
//
// Set-ups, shards and the timed phase are timed in CPU time of this
// process plus its 4 workers.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "core/campaign_engine.hpp"
#include "grid/matrix.hpp"
#include "grid/report.hpp"
#include "proc/supervisor.hpp"
#include "support/rng.hpp"
#include "svc/memo_store.hpp"
#include "svc/result_codec.hpp"

namespace perfbench {

namespace {

using namespace hetero;

constexpr int kWorkers = 4;
constexpr std::size_t kShardCells = 512;
constexpr double kTailPct = 95.0;
/// At least 5 passes (setup_s is their median) and ten shards beyond p95.
constexpr UnitNeeds kNeeds{5, 200};
/// Exact shape of the full matrix: cells, unique experiments (engine cache
/// misses) and launched cells.
constexpr std::int64_t kCells = 16200;
constexpr std::uint64_t kUnique = 5400;
constexpr std::int64_t kLaunched = 12933;
/// FNV-1a of the whole heterolab-grid-v1 report.
constexpr const char* kReportDigest = "c91327e530a893b3";

/// Forwards to a BatchExecutor, one span per batch.
class TracedExecutor final : public core::BatchExecutor {
 public:
  TracedExecutor(core::BatchExecutor& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  std::vector<core::ExecOutcome> execute(
      const std::vector<core::Experiment>& batch) override {
    ScopedSpan span(spans_, "proc.execute");
    return inner_.execute(batch);
  }

 private:
  core::BatchExecutor& inner_;
  SpanRecorder* spans_;
};

/// Runs every experiment on the calling thread, one span per
/// ExperimentRunner::run: the compute the workers do, without the process
/// boundary.
class InProcessExecutor final : public core::BatchExecutor {
 public:
  explicit InProcessExecutor(SpanRecorder* spans) : spans_(spans) {}
  std::vector<core::ExecOutcome> execute(
      const std::vector<core::Experiment>& batch) override {
    std::vector<core::ExecOutcome> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ScopedSpan span(spans_, "core.experiment");
      try {
        out[i].result = runner_.run(batch[i]);
      } catch (const std::exception& e) {
        out[i].failed = true;
        out[i].error = e.what();
      }
    }
    return out;
  }

 private:
  SpanRecorder* spans_;
  core::ExperimentRunner runner_{grid::kGridRunnerSeed};
};

/// Forwards to the memo-backed result store, one span per load and save.
class TracedStore final : public core::ExperimentResultStore {
 public:
  TracedStore(core::ExperimentResultStore& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  bool load(const std::string& key, core::ExperimentResult& out) override {
    ScopedSpan span(spans_, "svc.store_load");
    return inner_.load(key, out);
  }
  void save(const std::string& key,
            const core::ExperimentResult& result) override {
    ScopedSpan span(spans_, "svc.store_save");
    inner_.save(key, result);
  }

 private:
  core::ExperimentResultStore& inner_;
  SpanRecorder* spans_;
};

double children_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

struct Pass {
  Unit unit;
  std::uint64_t failed_shards = 0;
  double report_bytes = 0.0;
  std::string report_digest;
  std::int64_t cells = 0;
  std::int64_t launched = 0;
  core::CampaignEngineStats engine;
  proc::ProcStats proc;
  double worker_cpu_s = 0.0;
  double store_bytes = 0.0;
};

std::string digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return hex64(fnv1a(bytes));
}

/// One pass: fresh store and workers (a reused supervisor would replay
/// every cell from its shard logs), all shards, then the report.
/// `in_process` swaps the workers for InProcessExecutor (traced probe).
/// With `spans` set, every layer call of the pass is recorded there.
Pass run_pass(const grid::MatrixSpec& spec,
              const std::vector<std::size_t>& order, const std::string& dir,
              bool in_process, SpanRecorder* spans, Report& report) {
  Pass pass;
  const std::string store_path = dir + "/grid-store.log";
  const std::string report_path = dir + "/grid-report.jsonl";
  std::remove(store_path.c_str());
  const double reaped_cpu0 = children_cpu_s();
  {
    const double cpu_call = cpu_s();
    std::vector<pid_t> workers;
    std::unique_ptr<svc::MemoStore> store;
    {
      ScopedSpan span(spans, "svc.store_open");
      store = std::make_unique<svc::MemoStore>(store_path);
    }
    svc::MemoResultStore memo(*store);
    std::unique_ptr<proc::Supervisor> supervisor;
    std::unique_ptr<InProcessExecutor> local;
    core::BatchExecutor* executor = nullptr;
    if (in_process) {
      local = std::make_unique<InProcessExecutor>(spans);
      executor = local.get();
    } else {
      ScopedSpan span(spans, "proc.spawn");
      proc::ProcOptions options;
      options.workers = kWorkers;
      supervisor = std::make_unique<proc::Supervisor>(grid::kGridRunnerSeed,
                                                      options);
      executor = supervisor.get();
      // Forked workers start with a CPU clock of 0.
      workers = live_children();
      report.check(workers.size() == static_cast<std::size_t>(kWorkers),
                   "grid_full: " + std::to_string(workers.size()) +
                       " live workers after the supervisor started");
    }
    TracedExecutor traced_executor(*executor, spans);
    TracedStore traced_store(memo, spans);
    core::CampaignEngineOptions options;
    options.jobs = 1;
    options.result_store = &traced_store;
    options.executor = &traced_executor;
    auto engine =
        std::make_unique<core::CampaignEngine>(grid::kGridRunnerSeed, options);
    std::vector<grid::GridCell> cells;
    std::vector<std::vector<grid::GridCell>> shards;
    {
      ScopedSpan span(spans, "grid.expand");
      cells = grid::expand(spec);
      for (std::size_t i = 0; i < cells.size(); i += kShardCells) {
        shards.emplace_back(
            cells.begin() + static_cast<std::ptrdiff_t>(i),
            cells.begin() + static_cast<std::ptrdiff_t>(
                                std::min(cells.size(), i + kShardCells)));
      }
    }
    const double cpu_timed = cpu_s(workers);
    pass.unit.setup_s.push_back(cpu_timed - cpu_call);

    std::vector<std::vector<core::ExperimentResult>> shard_results(
        shards.size());
    for (const std::size_t s : order) {
      ScopedSpan op(spans, "op");
      const double t0 = now_s();
      const double cpu0 = cpu_s(workers);
      try {
        ScopedSpan span(spans, "grid.run_cells");
        shard_results[s] = grid::run_cells(*engine, shards[s]);
        pass.unit.op_ms.push_back((cpu_s(workers) - cpu0) * 1e3);
        pass.unit.wall_ms.push_back((now_s() - t0) * 1e3);
      } catch (const std::exception& e) {
        ++pass.failed_shards;
        report.check(false, std::string("grid_full: shard failed: ") + e.what());
      }
    }
    std::vector<core::ExperimentResult> results;
    results.reserve(cells.size());
    for (auto& part : shard_results) {
      for (auto& r : part) results.push_back(std::move(r));
    }
    if (pass.failed_shards == 0) {
      std::vector<obs::Json> records;
      {
        ScopedSpan span(spans, "grid.build_report");
        records = grid::build_report(spec, cells, results,
                                     grid::kGridRunnerSeed);
      }
      ScopedSpan span(spans, "grid.write_report");
      grid::write_report(records, report_path);
    }
    pass.unit.timed_s = cpu_s(workers) - cpu_timed;

    pass.cells = static_cast<std::int64_t>(cells.size());
    for (const auto& r : results) pass.launched += r.launched ? 1 : 0;
    pass.engine = engine->stats();
    if (supervisor) pass.proc = supervisor->stats();
    // Teardown order: engine, workers (killed and reaped), then the store
    // (flushed and fsynced).
    engine.reset();
    supervisor.reset();
    store.reset();
  }
  check_no_children(report, "grid_full");
  pass.worker_cpu_s = children_cpu_s() - reaped_cpu0;
  pass.store_bytes = file_bytes(store_path);
  pass.report_bytes = file_bytes(report_path);
  pass.report_digest = digest_file(report_path);
  std::remove(store_path.c_str());
  std::remove(report_path.c_str());
  return pass;
}

void check_pass(const Pass& pass, Report& report) {
  const auto expect = [&](bool ok, const std::string& what) {
    report.check(ok, "grid_full: " + what);
  };
  expect(pass.cells == kCells, std::to_string(pass.cells) + " cells");
  expect(pass.engine.cache_misses == kUnique,
         std::to_string(pass.engine.cache_misses) + " unique experiments");
  expect(pass.launched == kLaunched,
         std::to_string(pass.launched) + " launched cells");
  expect(pass.proc.worker_crashes == 0 && pass.proc.quarantined == 0,
         std::to_string(pass.proc.worker_crashes) + " crashes, " +
             std::to_string(pass.proc.quarantined) + " quarantined");
  expect(pass.report_digest == kReportDigest,
         "report digest " + pass.report_digest + " != pinned " + kReportDigest);
}

}  // namespace

Report run_grid_full(const RunConfig& config, SpanRecorder* spans) {
  Report report;
  const grid::MatrixSpec spec = grid::preset("full");
  std::vector<std::size_t> order(
      (static_cast<std::size_t>(kCells) + kShardCells - 1) / kShardCells);
  std::iota(order.begin(), order.end(), 0);
  Rng(config.seed).shuffle(order);
  const double start = now_s();
  std::vector<Pass> passes;
  while (want_unit(units_of(passes), now_s() - start, config, kNeeds)) {
    // A traced run alternates untraced and traced passes.
    const bool trace_this = config.trace && passes.size() % 2 == 1;
    const double probe_s = clock_probe_s();
    Pass pass = run_pass(spec, order, config.work_dir, false,
                         trace_this ? spans : nullptr, report);
    pass.unit.probe_s = std::min(probe_s, clock_probe_s());
    check_pass(pass, report);
    report.attempted += order.size();
    report.failed += pass.failed_shards;
    passes.push_back(std::move(pass));
  }
  if (!config.trace) {
    add_end_to_end(report, units_of(passes), kNeeds, kTailPct);
    return report;
  }
  std::vector<Pass> traced;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const std::vector<double>& ms = passes[i].unit.op_ms;
    if (i % 2 == 1) {
      traced_ms.insert(traced_ms.end(), ms.begin(), ms.end());
      traced.push_back(std::move(passes[i]));
    } else {
      untraced_ms.insert(untraced_ms.end(), ms.begin(), ms.end());
    }
  }

  // The same batches in-process: per-experiment compute without the
  // process boundary, and a differential check against the workers.
  SpanRecorder probe_spans;
  const Pass local =
      run_pass(spec, order, config.work_dir, true, &probe_spans, report);
  report.check(local.report_digest == kReportDigest,
               "grid_full: in-process report differs from the 4-worker one");

  const SpanAnalysis a = analyse(spans->spans(), "op");
  const double passes_traced = static_cast<double>(traced.size());
  const double shards = static_cast<double>(traced_ms.size());
  const auto per_pass = [&](const char* span) {
    return a.total(span) / passes_traced;
  };
  const auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const Pass& p : traced) v.push_back(static_cast<double>(field(p)));
    return median(v);
  };
  report.add("grid.expand_s", per_pass("grid.expand"), "s", "setup_s");
  report.add("proc.spawn_s", per_pass("proc.spawn"), "s", "setup_s");
  report.add("svc.store_open_s", per_pass("svc.store_open"), "s", "setup_s");
  report.add("proc.execute_s", a.total("proc.execute") / shards, "s",
             "op_p50_ms, op_tail_ms");
  report.add("core.experiment_s",
             analyse(probe_spans.spans(), "op").total("core.experiment") /
                 static_cast<double>(local.unit.op_ms.size()),
             "s", "op_p50_ms");
  // run_cells minus its children: execute, store loads and saves.
  report.add("core.engine_s", a.self_s.at("grid.run_cells") / shards, "s",
             "op_p50_ms");
  report.add("svc.store_save_s", per_pass("svc.store_save"), "s",
             "op_p50_ms, ops_per_s");
  report.add("svc.store_saves",
             static_cast<double>(a.count.at("svc.store_save")) / passes_traced,
             "count", "op_p50_ms, ops_per_s");
  report.add("svc.store_bytes", median_of([](const Pass& p) { return p.store_bytes; }),
             "B", "op_p50_ms, ops_per_s");
  report.add("grid.build_report_s", per_pass("grid.build_report"), "s",
             "ops_per_s");
  report.add("grid.write_report_s", per_pass("grid.write_report"), "s",
             "ops_per_s");
  report.add("grid.report_bytes",
             median_of([](const Pass& p) { return p.report_bytes; }), "B",
             "ops_per_s");
  report.add("core.cache_hits",
             median_of([](const Pass& p) { return p.engine.cache_hits; }),
             "count", "op_p50_ms");
  report.add("core.cache_misses",
             median_of([](const Pass& p) { return p.engine.cache_misses; }),
             "count", "op_p50_ms");
  const auto proc_count = [&](const char* name, auto field) {
    report.add(name, median_of([&](const Pass& p) { return p.proc.*field; }),
               "count", "op_p50_ms");
  };
  proc_count("proc.dispatched", &proc::ProcStats::jobs_dispatched);
  proc_count("proc.crashes", &proc::ProcStats::worker_crashes);
  proc_count("proc.respawns", &proc::ProcStats::respawns);
  proc_count("proc.replays", &proc::ProcStats::shard_replays);
  proc_count("proc.quarantined", &proc::ProcStats::quarantined);
  report.add("proc.worker_cpu_s",
             median_of([](const Pass& p) { return p.worker_cpu_s; }), "s",
             "ops_per_s");
  report.add("trace.overhead_pct",
             (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%",
             "op_p50_ms traced vs untraced");
  return report;
}

}  // namespace perfbench
