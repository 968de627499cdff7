// Throughput of the advisory daemon's pipe transport: a 10k-request
// stream with a bounded number of unique requests, answered cold (fresh
// memo store, every unique request priced through the broker) and then
// warm (same store, new service — every answer replayed from the log).
// The paper's broker is only useful as a *service* if repeated sweeps are
// cheap, so CI gates warm_speedup >= 5x and byte-identical replay.
//
// The process pins itself to the allowed CPU with the fewest device
// interrupts and times each run on the process CPU clock. It runs a fixed
// number of cold->warm pairs, each on a fresh store, and reports the
// median of the per-pair cold/warm ratios, so a host slowdown cancels
// within its pair instead of landing on one side.
//
//   bench_svc_throughput [--requests N] [--unique U] [--seed S] [--csv]
//                        [--json OUT]

#include <cstdio>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_main.hpp"
#include "support/error.hpp"
#include "support/units.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace {

using namespace hetero;

/// Deterministic request stream: `unique` distinct job descriptors cycled
/// over `total` lines. Mirrors tools/gen_svc_requests.py for the CI soak.
std::string make_requests(int total, int unique) {
  static const char* kObjectives[] = {"effective", "cost", "time"};
  std::string out;
  out.reserve(static_cast<std::size_t>(total) * 112);
  for (int i = 0; i < total; ++i) {
    const int u = i % unique;
    out += "{\"id\":" + std::to_string(i);
    out += ",\"app\":\"";
    out += (u % 2 == 0 ? "rd" : "ns");
    // Element-count requests sweep the full candidate space (every rank
    // count on every platform, spot strategies included) — the expensive
    // cold path. frontier:false keeps the response a single decision
    // line, so the warm replay measures the memo store, not IO.
    out += "\",\"elements\":" + std::to_string(500000 + (u / 6) * 37500);
    out += ",\"iterations\":" + std::to_string(50 + (u % 2) * 50);
    out += ",\"objective\":\"";
    out += kObjectives[u % 3];
    out += "\",\"frontier\":false}\n";
  }
  return out;
}

/// Cold->warm pairs per run; odd, so the median is one pair's ratio.
constexpr int kPairs = 9;

struct RunResult {
  std::string output;
  double cpu_s = 0.0;
  std::uint64_t served = 0;
};

RunResult run_stream(const std::string& requests, const std::string& store,
                     std::uint64_t seed) {
  svc::ServiceOptions options;
  options.seed = seed;
  options.jobs = 1;  // the process has one CPU
  options.store_path = store;
  svc::Service service(options);
  std::istringstream in(requests);
  std::ostringstream out;
  const double started = bench::process_cpu_s();
  const auto stats = svc::serve_pipe(service, in, out);
  RunResult r;
  r.cpu_s = bench::process_cpu_s() - started;
  r.output = out.str();
  r.served = stats.served;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetero;
  try {
    const CliArgs args(argc, argv);
    bench::pin_to_quietest_cpu();
    bench::BenchOutput output(args, "svc_throughput");
    const int total = args.get_int32("requests", 10000);
    const int unique = args.get_int32("unique", 250);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    HETERO_REQUIRE(total > 0 && unique > 0 && unique <= total,
                   "need 0 < --unique <= --requests");

    const std::string store =
        "/tmp/bench_svc_throughput_" + std::to_string(::getpid()) + ".log";
    const std::string requests = make_requests(total, unique);

    std::vector<double> cold_s, warm_s, ratio;
    std::uint64_t served[2] = {0, 0};
    std::string first_output;
    bool identical = true;
    for (int pair = 0; pair < kPairs; ++pair) {
      std::remove(store.c_str());
      const RunResult cold = run_stream(requests, store, seed);
      const RunResult warm = run_stream(requests, store, seed);
      if (pair == 0) {
        first_output = cold.output;
        served[0] = cold.served;
        served[1] = warm.served;
      }
      identical = identical && cold.output == first_output &&
                  warm.output == first_output;
      cold_s.push_back(cold.cpu_s);
      warm_s.push_back(warm.cpu_s);
      ratio.push_back(cold.cpu_s / warm.cpu_s);
    }
    std::remove(store.c_str());
    const double speedup = bench::median(ratio);

    Table table({"mode", "requests", "unique", "served", "cpu[s]", "rps"});
    const auto row = [&](const char* mode, std::uint64_t n,
                         const std::vector<double>& s) {
      const double cpu = bench::median(s);
      table.add_row({mode, std::to_string(total), std::to_string(unique),
                     std::to_string(n), fmt_double(cpu, 3),
                     fmt_double(static_cast<double>(total) / cpu, 0)});
    };
    row("cold", served[0], cold_s);
    row("warm", served[1], warm_s);
    output.emit(table, "pipe");

    obs::Json summary = obs::Json::object();
    summary.set("series", "summary");
    summary.set("requests", total);
    summary.set("unique", unique);
    summary.set("pairs", kPairs);
    summary.set("warm_speedup", speedup);
    summary.set("identical", identical ? 1 : 0);
    summary.set("cold_cpu_s", bench::median(cold_s));
    summary.set("warm_cpu_s", bench::median(warm_s));
    output.record(std::move(summary));

    std::cout << "\nwarm speedup  " << fmt_double(speedup, 2)
              << "x (median of " << kPairs << " pairs, process CPU time), "
              << "replay " << (identical ? "byte-identical" : "DIFFERS")
              << "\n";
    return identical ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
