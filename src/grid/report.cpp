#include "grid/report.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "broker/frontier.hpp"
#include "obs/bench_io.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

namespace hetero::grid {

namespace {

/// Members of a launched and of a failed cell record (build_report).
constexpr std::size_t kLaunchedCellMembers = 32;
constexpr std::size_t kFailedCellMembers = 19;

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

obs::Json string_array(const std::vector<std::string>& values) {
  obs::Json arr = obs::Json::array();
  for (const std::string& v : values) {
    arr.push_back(v);
  }
  return arr;
}

obs::Json int_array(const std::vector<int>& values) {
  obs::Json arr = obs::Json::array();
  for (const int v : values) {
    arr.push_back(v);
  }
  return arr;
}

/// Max/mean of the modeled per-rank skew factors: 1.0 on a uniform
/// platform, the headroom a balancer could win back under skew.
double skew_imbalance(const GridCell& cell, std::uint64_t runner_seed) {
  if (!cell.experiment.skew.enabled()) {
    return 1.0;
  }
  const std::vector<double> factors =
      core::modeled_skew_factors(cell.experiment, runner_seed);
  double max = 0.0;
  double sum = 0.0;
  for (const double f : factors) {
    max = std::max(max, f);
    sum += f;
  }
  return max / (sum / static_cast<double>(factors.size()));
}

}  // namespace

std::vector<core::ExperimentResult> run_cells(core::CampaignEngine& engine,
                                              const std::vector<GridCell>& cells,
                                              const GridRunOptions& options) {
  HETERO_REQUIRE(options.shard_size >= 1, "grid needs a positive shard size");
  const std::int64_t total = static_cast<std::int64_t>(cells.size());
  const int shards = static_cast<int>(
      (total + options.shard_size - 1) / options.shard_size);
  std::vector<core::ExperimentResult> results;
  results.reserve(cells.size());
  for (int shard = 0; shard < shards; ++shard) {
    const std::int64_t begin =
        static_cast<std::int64_t>(shard) * options.shard_size;
    const std::int64_t end = std::min(total, begin + options.shard_size);
    std::vector<core::Experiment> batch;
    batch.reserve(static_cast<std::size_t>(end - begin));
    for (std::int64_t i = begin; i < end; ++i) {
      batch.push_back(cells[static_cast<std::size_t>(i)].experiment);
    }
    std::vector<core::ExperimentResult> shard_results =
        engine.run_batch(batch);
    for (auto& r : shard_results) {
      results.push_back(std::move(r));
    }
    if (options.progress) {
      options.progress(shard + 1, shards, end, total);
    }
    if (options.abort_after_shards > 0 &&
        shard + 1 == options.abort_after_shards && shard + 1 < shards) {
      // Interrupt-resume test hook: a process-directed SIGTERM reaches the
      // CLI's shutdown guard (flush + exit 143); without a guard the
      // default disposition kills the process outright. Either way the
      // result store already holds every finished shard.
      ::kill(::getpid(), SIGTERM);
      for (;;) {
        ::pause();
      }
    }
  }
  return results;
}

std::vector<obs::Json> build_report(
    const MatrixSpec& spec, const std::vector<GridCell>& cells,
    const std::vector<core::ExperimentResult>& results,
    std::uint64_t runner_seed) {
  HETERO_REQUIRE(cells.size() == results.size(),
                 "build_report needs one result per cell");
  std::vector<obs::Json> records;
  records.reserve(cells.size() + 16);

  obs::Json header = obs::Json::object();
  header.set("schema", kGridSchema);
  header.set("type", "header");
  header.set("matrix", spec.name);
  header.set("matrix_seed", hex_u64(spec.matrix_seed));
  header.set("iterations", spec.iterations);
  const std::int64_t total = cardinality(spec.axes);
  header.set("cardinality", total);
  header.set("cells", static_cast<std::int64_t>(cells.size()));
  header.set("sampled", static_cast<std::int64_t>(cells.size()) != total);
  obs::Json axes = obs::Json::object();
  axes.set("platforms", string_array(spec.axes.platforms));
  axes.set("ranks", int_array(spec.axes.ranks));
  axes.set("app_pairs", string_array(spec.axes.app_pairs));
  axes.set("resolutions", int_array(spec.axes.resolutions));
  axes.set("fault_policies", string_array(spec.axes.fault_policies));
  axes.set("skew_balance", string_array(spec.axes.skew_balance));
  axes.set("objectives", string_array(spec.axes.objectives));
  axes.set("seed_reps", spec.axes.seed_reps);
  header.set("axes", std::move(axes));
  records.push_back(std::move(header));

  struct PlatformTally {
    std::int64_t cells = 0;
    std::int64_t launched = 0;
    int max_launched_ranks = 0;
    std::set<std::string> reasons;
  };
  std::map<std::string, PlatformTally> tallies;
  // One entry per unique experiment, holding its skew imbalance once a
  // launched cell has needed it: the objective axis re-scores one result
  // three times, and the factors behind the imbalance are per experiment.
  std::unordered_map<std::string, std::optional<double>> unique_experiments;
  std::int64_t launched_cells = 0;
  std::int64_t stochastic_cells = 0;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCell& cell = cells[i];
    const core::ExperimentResult& r = results[i];
    std::optional<double>& skew =
        unique_experiments[core::experiment_cache_key(cell.experiment,
                                                      runner_seed)];
    stochastic_cells += cell.stochastic ? 1 : 0;
    PlatformTally& tally = tallies[cell.platform];
    ++tally.cells;
    if (r.launched) {
      ++tally.launched;
      tally.max_launched_ranks = std::max(tally.max_launched_ranks,
                                          cell.ranks);
      ++launched_cells;
    } else {
      tally.reasons.insert(r.failure_reason);
    }

    obs::Json rec = obs::Json::object();
    rec.reserve(r.launched ? kLaunchedCellMembers : kFailedCellMembers);
    rec.set("schema", kGridSchema);
    rec.set("type", "cell");
    rec.set("cell", cell.index);
    rec.set("label", cell_label(cell));
    rec.set("platform", cell.platform);
    rec.set("ranks", cell.ranks);
    rec.set("app_pair", cell.app_pair);
    rec.set("resolution", cell.resolution);
    rec.set("fault", cell.fault);
    rec.set("skewlb", cell.skewlb);
    rec.set("objective", cell.objective);
    rec.set("rep", cell.rep);
    rec.set("stochastic", cell.stochastic);
    rec.set("seed", hex_u64(cell.experiment.seed));
    rec.set("launched", r.launched);
    if (r.launched) {
      rec.set("queue_wait_s", r.queue_wait_s);
      rec.set("provisioning_hours", r.provisioning_hours);
      rec.set("assembly_s", r.iteration.assembly_s);
      rec.set("precond_s", r.iteration.preconditioner_s);
      rec.set("solve_s", r.iteration.solve_s);
      rec.set("total_s", r.iteration.total_s);
      rec.set("solver_iterations", r.iteration.solver_iterations);
      rec.set("cost_usd", r.cost_per_iteration_usd);
      rec.set("est_cost_usd", r.est_cost_per_iteration_usd);
      rec.set("hosts", r.hosts);
      rec.set("spot_hosts", r.spot_hosts);
      rec.set("launch_retries", r.resil.launch_retries);
      rec.set("retry_delay_s", r.resil.retry_delay_s);
      if (!skew) {
        skew = skew_imbalance(cell, runner_seed);
      }
      rec.set("skew_imbalance", *skew);
      const double run_s = r.iteration.total_s * spec.iterations;
      rec.set("run_s", run_s);
      rec.set("effective_s", r.queue_wait_s +
                                 r.provisioning_hours * kSecondsPerHour +
                                 run_s);
      rec.set("score", score_cell(cell, r, spec.iterations));
    } else {
      rec.set("failure_reason", r.failure_reason);
      rec.set("total_s", obs::Json());
      rec.set("cost_usd", obs::Json());
      rec.set("score", obs::Json());
    }
    records.push_back(std::move(rec));
  }

  for (const std::string& platform : spec.axes.platforms) {
    const PlatformTally& tally = tallies[platform];
    obs::Json rec = obs::Json::object();
    rec.set("schema", kGridSchema);
    rec.set("type", "capability");
    rec.set("platform", platform);
    rec.set("cells", tally.cells);
    rec.set("launched", tally.launched);
    rec.set("failed", tally.cells - tally.launched);
    rec.set("max_launched_ranks", tally.max_launched_ranks);
    rec.set("reasons",
            string_array({tally.reasons.begin(), tally.reasons.end()}));
    records.push_back(std::move(rec));
  }

  // Time/cost frontier per app pair over the stable comparable core: calm
  // launched cells of the first objective at rep 0 (one point per unique
  // experiment — other objectives re-score the same result).
  std::int64_t frontier_points = 0;
  for (const std::string& pair : spec.axes.app_pairs) {
    std::vector<std::pair<double, double>> points;
    std::vector<std::size_t> owners;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const GridCell& cell = cells[i];
      if (cell.app_pair != pair || !results[i].launched ||
          cell.fault != "calm" || cell.skewlb != "calm" || cell.rep != 0 ||
          cell.objective != spec.axes.objectives.front()) {
        continue;
      }
      points.emplace_back(results[i].iteration.total_s,
                          results[i].cost_per_iteration_usd);
      owners.push_back(i);
    }
    const auto frontier = broker::pareto_frontier(points);
    int seq = 0;
    for (const auto& point : frontier) {
      const GridCell& cell = cells[owners[point.index]];
      obs::Json rec = obs::Json::object();
      rec.set("schema", kGridSchema);
      rec.set("type", "frontier");
      rec.set("app_pair", pair);
      rec.set("seq", seq++);
      rec.set("cell", cell.index);
      rec.set("platform", cell.platform);
      rec.set("ranks", cell.ranks);
      rec.set("time_s", point.time_s);
      rec.set("cost_usd", point.cost_usd);
      records.push_back(std::move(rec));
      ++frontier_points;
    }
  }

  obs::Json summary = obs::Json::object();
  summary.set("schema", kGridSchema);
  summary.set("type", "summary");
  summary.set("cells", static_cast<std::int64_t>(cells.size()));
  summary.set("launched", launched_cells);
  summary.set("failed", static_cast<std::int64_t>(cells.size()) -
                            launched_cells);
  summary.set("stochastic_cells", stochastic_cells);
  summary.set("calm_cells",
              static_cast<std::int64_t>(cells.size()) - stochastic_cells);
  summary.set("unique_experiments",
              static_cast<std::int64_t>(unique_experiments.size()));
  summary.set("frontier_points", frontier_points);
  records.push_back(std::move(summary));
  return records;
}

void write_report(const std::vector<obs::Json>& records,
                  const std::string& path) {
  if (path == "-") {
    for (const obs::Json& rec : records) {
      const std::string line = rec.dump();
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fputc('\n', stdout);
    }
    std::fflush(stdout);
    return;
  }
  obs::JsonlWriter writer(path);
  for (const obs::Json& rec : records) {
    writer.write(rec);
  }
  writer.close();
}

}  // namespace hetero::grid
