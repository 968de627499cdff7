// svc_restart: the advisory daemon restarts on a memo store that was
// pre-built (untimed) from a seeded history of answered requests, then
// serves a seeded closed-loop request stream over its Unix socket. The op
// is one request round trip. Each pass is one restart on a fresh copy of
// the history store. Set-ups and round trips are timed in CPU time of the
// process: client, daemon and connection threads.
//
// One client connection: with 2 and 4 connections the p99.9 round trip of
// back-to-back runs of one seed moved between 6 and 14 ms on a 4-vCPU host
// (client, connection and pricing threads contending for the cores), while
// one connection held it within 10%.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "broker/broker.hpp"
#include "broker/objectives.hpp"
#include "common.hpp"
#include "support/rng.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace {

using namespace hetero;

constexpr double kTailPct = 99.9;
/// At least 5 passes (setup_s is their median) and ten ops beyond p99.9.
constexpr UnitNeeds kNeeds{5, 10000};
/// In-process probe passes of a traced run (per-request medians).
constexpr int kProbePasses = 5;
constexpr const char* kSocket = "svc.sock";
constexpr std::uint64_t kServiceSeed = 42;
/// The paper's weak-scaling sizes: p ranks x 20^3 elements per rank.
constexpr int kRanks[] = {1, 8, 27, 64, 125, 216, 343, 512, 729, 1000};
constexpr const char* kApps[] = {"rd", "ns"};
constexpr const char* kObjectives[] = {"time", "cost", "effective"};
constexpr int kIterations[] = {50, 100, 200};
constexpr int kCombos = 9;  // objectives x iteration counts
/// History descriptors per size the history answered. Every (app, size)
/// pair gets kPerPair stream requests.
constexpr int kHistoryPerSize = 3;
constexpr int kPerPair = 12;
/// What the broker says when it cannot price a size.
constexpr const char* kFailReason =
    "campaign exceeded the wall-clock safety limit";

struct Descriptor {
  int app = 0;
  int size = 0;   // index into kRanks
  int combo = 0;  // objective = combo / 3, iterations = combo % 3

  std::string key() const {
    return std::string(kApps[app]) + "\t" + std::to_string(kRanks[size]) +
           "\t" + kObjectives[combo / 3] + "\t" +
           std::to_string(kIterations[combo % 3]);
  }
  std::string line(std::int64_t id) const {
    return "{\"id\":" + std::to_string(id) + ",\"app\":\"" + kApps[app] +
           "\",\"elements\":" + std::to_string(kRanks[size] * 8000) +
           ",\"iterations\":" + std::to_string(kIterations[combo % 3]) +
           ",\"objective\":\"" + kObjectives[combo / 3] + "\"}";
  }
  bool operator<(const Descriptor& o) const {
    return std::tie(app, size, combo) < std::tie(o.app, o.size, o.combo);
  }
};

struct Workload {
  std::vector<Descriptor> history;
  /// Request id i + 1 carries stream[i].
  std::vector<Descriptor> stream;
};

/// The seeded history and stream. The composition is fixed, so the store's
/// size and the share of each kind of request are the same for every seed:
/// the history answered every other size (rd from p = 1, ns from p = 8)
/// and every pair gets kPerPair requests. The seed picks the descriptors
/// and the order.
Workload make_workload(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  // Rng::shuffle permutes indices; gathering by them applies the same
  // permutation to the descriptors.
  const auto shuffle = [&](std::vector<Descriptor>& items) {
    std::vector<std::size_t> order(items.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    std::vector<Descriptor> out;
    for (const std::size_t i : order) out.push_back(items[i]);
    items = std::move(out);
  };
  for (int app = 0; app < 2; ++app) {
    for (int size = 0; size < static_cast<int>(std::size(kRanks)); ++size) {
      std::vector<std::size_t> combos(kCombos);
      std::iota(combos.begin(), combos.end(), 0);
      rng.shuffle(combos);
      const auto add = [&](std::size_t combo, int times) {
        for (int t = 0; t < times; ++t) {
          w.stream.push_back({app, size, static_cast<int>(combo)});
        }
      };
      if (size % 2 == app) {
        // Repeats of the history (req| hits) and new objectives or
        // iteration counts on a known size (exp| hits from the store).
        for (int h = 0; h < kHistoryPerSize; ++h) {
          w.history.push_back({app, size, static_cast<int>(combos[h])});
          add(combos[h], 2);
        }
        for (int n = 0; n < 3; ++n) add(combos[kHistoryPerSize + n], 2);
      } else {
        // A size the store has never seen: priced, then appended.
        for (int n = 0; n < 4; ++n) add(combos[n], kPerPair / 4);
      }
    }
  }
  shuffle(w.history);
  shuffle(w.stream);
  return w;
}

/// The payload a response carries for its descriptor: the id put back to
/// the cache token, so every answer to one descriptor digests alike.
std::string normalise(const std::vector<std::string>& lines, std::int64_t id) {
  const std::string from = "\"id\":" + std::to_string(id);
  const std::string to = std::string("\"id\":") + svc::kIdToken;
  std::string out;
  for (std::string line : lines) {
    const std::size_t pos = line.find(from);
    if (pos != std::string::npos) line.replace(pos, from.size(), to);
    out += line;
    out.push_back('\n');
  }
  return out;
}

bool is_error(const std::vector<std::string>& lines) {
  return lines.empty() ||
         lines.front().find("\"type\":\"error\"") != std::string::npos;
}

/// Pinned answer per descriptor key: a payload digest, or "FAIL".
std::map<std::string, std::string> load_pins(const std::string& path) {
  std::ifstream in(path);
  HETERO_REQUIRE(in.good(), "svc_restart: cannot read pins " + path);
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.rfind('\t');
    pins[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return pins;
}

/// One client connection speaking the line protocol.
class Client {
 public:
  /// Connects to the socket at `path`, retrying until the server listens.
  /// Throws once `server_done` is set (the server thread gave up) or after
  /// 10 s.
  Client(const std::string& path, const std::atomic<bool>& server_done) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const double deadline = now_s() + 10.0;
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      HETERO_REQUIRE(fd_ >= 0, "svc_restart: cannot create a socket");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      HETERO_REQUIRE(!server_done.load(std::memory_order_acquire) &&
                         now_s() < deadline,
                     "svc_restart: cannot connect");
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and reads its whole answer (a decision plus
  /// its frontier lines, or one error line). False if the server hung up.
  bool round_trip(const std::string& request, std::vector<std::string>& lines) {
    lines.clear();
    std::string out = request;
    out.push_back('\n');
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    std::string line;
    if (!read_line(line)) return false;
    lines.push_back(line);
    std::size_t more = 0;
    const std::size_t pos = line.find("\"frontier\":");
    if (line.find("\"type\":\"decision\"") != std::string::npos &&
        pos != std::string::npos) {
      more = std::strtoul(line.c_str() + pos + 11, nullptr, 10);
    }
    for (std::size_t i = 0; i < more; ++i) {
      if (!read_line(line)) return false;
      lines.push_back(line);
    }
    return true;
  }

 private:
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Answers of one pass, indexed by request id - 1.
struct Answers {
  std::vector<std::vector<std::string>> lines;
  /// Wall-clock and CPU round trips.
  std::vector<double> ms;
  std::vector<double> cpu_ms;
  std::vector<char> answered;
  /// Answered without an error record; set by check_answers, which then
  /// drops the lines.
  std::vector<char> ok;
};

struct Pass {
  /// Set-up and the successful requests.
  Unit unit;
  Answers answers;
  svc::MemoStoreStats store;
  core::CampaignEngineStats engine;
};

svc::ServiceOptions service_options(const std::string& store_path) {
  svc::ServiceOptions options;
  options.seed = kServiceSeed;
  options.jobs = 1;
  options.store_path = store_path;
  return options;
}

/// One restart: recover the store, serve the stream over the socket to
/// one closed-loop client, shut the daemon down.
///
/// The daemon runs in-process on a thread of its own, which builds the
/// Service and serves, as a daemon process does from its main thread. The
/// set-up starts with that thread's first call into the program and ends
/// on the calling thread once the client is connected, so the start of
/// the thread itself is not timed. Handing the Service to a parked or
/// spinning server thread moved wall-clock set-up medians by 0.1-0.4 ms
/// between runs.
Pass run_pass(const Workload& w, const std::string& history,
              const std::string& dir, SpanRecorder* spans) {
  Pass pass;
  const std::string store_path = dir + "/svc-store.log";
  std::filesystem::copy_file(history, store_path,
                             std::filesystem::copy_options::overwrite_existing);
  const std::size_t n = w.stream.size();
  pass.answers.lines.resize(n);
  pass.answers.ms.resize(n);
  pass.answers.cpu_ms.resize(n);
  pass.answers.answered.assign(n, 0);
  const std::string shutdown = "{\"type\":\"shutdown\",\"id\":0}";

  std::atomic<double> cpu_call{0.0};
  std::atomic<bool> server_done{false};
  std::optional<svc::Service> service;
  std::string server_error;
  std::thread server([&] {
    try {
      cpu_call.store(cpu_s(), std::memory_order_release);
      service.emplace(service_options(store_path));
      svc::serve_unix_socket(*service, kSocket);
    } catch (const std::exception& e) {
      server_error = e.what();
    }
    server_done.store(true, std::memory_order_release);
  });
  std::exception_ptr failure;
  try {
    Client client(kSocket, server_done);
    const double cpu_timed = cpu_s();
    pass.unit.setup_s.push_back(cpu_timed -
                                cpu_call.load(std::memory_order_acquire));
    for (std::size_t i = 0; i < n; ++i) {
      ScopedSpan op(spans, "op");
      const std::string request =
          w.stream[i].line(static_cast<std::int64_t>(i) + 1);
      const double t0 = now_s();
      const double cpu0 = cpu_s();
      bool ok = false;
      {
        ScopedSpan span(spans, "svc.socket");
        ok = client.round_trip(request, pass.answers.lines[i]);
      }
      pass.answers.cpu_ms[i] = (cpu_s() - cpu0) * 1e3;
      pass.answers.ms[i] = (now_s() - t0) * 1e3;
      pass.answers.answered[i] = ok ? 1 : 0;
    }
    pass.unit.timed_s = cpu_s() - cpu_timed;
    std::vector<std::string> bye;
    client.round_trip(shutdown, bye);
  } catch (const std::exception&) {
    failure = std::current_exception();
    try {
      // Stop a server that still accepts before leaving.
      Client stopper(kSocket, server_done);
      std::vector<std::string> bye;
      stopper.round_trip(shutdown, bye);
    } catch (const std::exception&) {
    }
  }
  server.join();
  // The server's error first: a server that failed to start also makes the
  // client fail to connect.
  HETERO_REQUIRE(server_error.empty(), "svc_restart: server: " + server_error);
  if (failure) std::rethrow_exception(failure);
  pass.store = service->store().stats();
  pass.engine = service->engine().stats();
  return pass;
}

/// Checks every answer against the pinned table and digests the whole
/// stream (ordered by request id) against the digest the pins predict.
void check_answers(const Workload& w, Answers& a,
                   const std::map<std::string, std::string>& pins,
                   Report& report) {
  std::uint64_t expected = fnv1a("");
  std::uint64_t observed = fnv1a("");
  std::set<std::size_t> want_fail;
  std::set<std::size_t> got_fail;
  for (std::size_t i = 0; i < w.stream.size(); ++i) {
    const std::int64_t id = static_cast<std::int64_t>(i) + 1;
    const bool failed_op = !a.answered[i] || is_error(a.lines[i]);
    a.ok.push_back(failed_op ? 0 : 1);
    if (failed_op) got_fail.insert(i);
    const auto pin = pins.find(w.stream[i].key());
    report.check(pin != pins.end(),
                 "svc_restart: no pin for " + w.stream[i].key());
    if (pin == pins.end()) continue;
    if (pin->second == "FAIL") {
      want_fail.insert(i);
      expected = fnv1a("FAIL\n", expected);
    } else {
      expected = fnv1a(pin->second + "\n", expected);
    }
    if (failed_op) {
      observed = fnv1a("FAIL\n", observed);
      report.check(a.answered[i] && a.lines[i].front().find(kFailReason) !=
                                         std::string::npos,
                   "svc_restart: request " + std::to_string(id) +
                       " failed for another reason");
    } else {
      observed =
          fnv1a(hex64(fnv1a(normalise(a.lines[i], id))) + "\n", observed);
    }
  }
  report.failed += got_fail.size();
  a.lines = {};
  report.check(got_fail == want_fail,
               "svc_restart: " + std::to_string(got_fail.size()) +
                   " failing requests, the pins predict " +
                   std::to_string(want_fail.size()));
  report.check(observed == expected, "svc_restart: response digest " +
                                         hex64(observed) + " != pinned " +
                                         hex64(expected));
}

/// Answers the history through an in-process Service writing `path`.
void build_history(const Workload& w, const std::string& path) {
  svc::Service service(service_options(path));
  std::int64_t id = 1;
  for (const Descriptor& d : w.history) {
    try {
      service.process_line(d.line(id++));
    } catch (const Error&) {
      // A size the broker cannot price: nothing is memoized for it.
    }
  }
}

}  // namespace

std::string svc_pins() {
  svc::Service service(service_options(""));
  std::string out =
      "# app\tranks\tobjective\titerations\tanswer digest or FAIL\n";
  for (int app = 0; app < 2; ++app) {
    for (int size = 0; size < static_cast<int>(std::size(kRanks)); ++size) {
      for (int combo = 0; combo < kCombos; ++combo) {
        const Descriptor d{app, size, combo};
        std::vector<std::string> lines;
        try {
          lines = service.process_line(d.line(1));
        } catch (const std::exception& e) {
          lines = {svc::render_error(-1, e.what())};
        }
        out += d.key() + "\t" +
               (is_error(lines) ? std::string("FAIL")
                                : hex64(fnv1a(normalise(lines, 1)))) +
               "\n";
      }
    }
  }
  return out;
}

Report run_svc_restart(const RunConfig& config, SpanRecorder* spans) {
  Report report;
  const Workload w = make_workload(config.seed);
  const auto pins = load_pins(config.pins_path);
  const std::string history = config.work_dir + "/svc-history.log";
  build_history(w, history);

  std::vector<Pass> passes;
  const double start = now_s();
  while (want_unit(units_of(passes), now_s() - start, config, kNeeds)) {
    // A traced run alternates untraced and traced passes.
    const bool trace_this = config.trace && passes.size() % 2 == 1;
    const double probe_s = clock_probe_s();
    Pass pass =
        run_pass(w, history, config.work_dir, trace_this ? spans : nullptr);
    pass.unit.probe_s = std::min(probe_s, clock_probe_s());
    report.attempted += w.stream.size();
    check_answers(w, pass.answers, pins, report);
    // Latency statistics cover the successful ops only.
    for (std::size_t i = 0; i < w.stream.size(); ++i) {
      if (!pass.answers.ok[i]) continue;
      pass.unit.op_ms.push_back(pass.answers.cpu_ms[i]);
      pass.unit.wall_ms.push_back(pass.answers.ms[i]);
    }
    // Only traced passes need the per-request answers afterwards; keeping
    // them would let the run's length grow the process's peak RSS.
    if (!trace_this) pass.answers = {};
    passes.push_back(std::move(pass));
  }
  if (!config.trace) {
    add_end_to_end(report, units_of(passes), kNeeds, kTailPct);
    return report;
  }
  std::vector<Pass> traced;
  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i % 2 == 1) {
      traced.push_back(std::move(passes[i]));
    } else {
      const auto& ms = passes[i].unit.op_ms;
      untraced_ms.insert(untraced_ms.end(), ms.begin(), ms.end());
    }
  }

  const std::size_t n = w.stream.size();
  const std::string probe = config.work_dir + "/svc-probe.log";
  const auto fresh_copy = [&] {
    std::filesystem::copy_file(
        history, probe, std::filesystem::copy_options::overwrite_existing);
  };
  // Store recovery alone, and the same stream through
  // Service::process_line without the socket, kProbePasses times each.
  std::vector<double> recover_s;
  std::uint64_t recovered = 0;
  std::vector<std::vector<double>> process_s(n);
  double candidates = 0.0;
  for (int probe_pass = 0; probe_pass < kProbePasses; ++probe_pass) {
    fresh_copy();
    {
      const double t = now_s();
      const svc::MemoStore store(probe);
      recover_s.push_back(now_s() - t);
      recovered = store.stats().recovered_records;
    }
    svc::Service service(service_options(probe));
    // On a fresh thread, as the server answers each connection: on the
    // long-lived main thread the same calls ran about 25% slower.
    std::thread connection([&] {
      for (std::size_t i = 0; i < n; ++i) {
        const std::string line =
            w.stream[i].line(static_cast<std::int64_t>(i) + 1);
        const double t = now_s();
        try {
          service.process_line(line);
        } catch (const Error&) {
          // The failing sizes; counted by the socket passes.
        }
        process_s[i].push_back(now_s() - t);
      }
    });
    connection.join();
    if (probe_pass == 0) {
      for (const Descriptor& d : w.stream) {
        candidates +=
            service.request_cost(svc::parse_request_line(d.line(1)));
      }
    }
  }

  // Broker pricing of each descriptor the history did not answer, in
  // stream order, against the history's experiment results.
  fresh_copy();
  std::vector<double> recommend_s;
  {
    svc::MemoStore store(probe);
    svc::MemoResultStore results(store);
    core::CampaignEngineOptions options;
    options.jobs = 1;
    options.result_store = &results;
    core::CampaignEngine engine(kServiceSeed, options);
    broker::Broker broker(engine);
    std::set<Descriptor> seen(w.history.begin(), w.history.end());
    for (const Descriptor& d : w.stream) {
      if (!seen.insert(d).second) continue;
      const svc::SvcRequest request = svc::parse_request_line(d.line(1));
      const double t0 = now_s();
      try {
        broker.recommend(request.job, broker::objective_by_name(request.objective));
      } catch (const Error&) {
      }
      recommend_s.push_back(now_s() - t0);
    }
  }

  // Per answered request id: its median round trip over the socket
  // (traced passes) minus its median in-process answer time.
  std::vector<double> traced_ms;
  std::vector<double> transport_s;
  double process_sum = 0.0;
  double lookups = 0, hits = 0, appends = 0, joins = 0, store_hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> rt_s;
    for (const Pass& p : traced) {
      if (p.answers.ok[i]) rt_s.push_back(p.answers.ms[i] * 1e-3);
    }
    if (rt_s.empty()) continue;
    process_sum += median(process_s[i]);
    transport_s.push_back(median(rt_s) - median(process_s[i]));
  }
  for (const Pass& p : traced) {
    traced_ms.insert(traced_ms.end(), p.unit.op_ms.begin(), p.unit.op_ms.end());
    lookups += static_cast<double>(p.store.lookups);
    hits += static_cast<double>(p.store.hits);
    appends += static_cast<double>(p.store.appends);
    joins += static_cast<double>(p.store.inflight_joins);
    store_hits += static_cast<double>(p.engine.store_hits);
  }
  const double requests = static_cast<double>(n * traced.size());
  double recommend_sum = 0.0;
  for (const double s : recommend_s) recommend_sum += s;

  report.add("svc.recover_s", median(recover_s), "s", "setup_s");
  report.add("svc.recovered_records", static_cast<double>(recovered), "count",
             "setup_s");
  report.add("svc.process_s",
             process_sum / static_cast<double>(transport_s.size()), "s",
             "op_p50_ms (hits), op_tail_ms (pricing)");
  report.add("svc.transport_s", median(transport_s), "s", "op_p50_ms");
  report.add("broker.recommend_s",
             recommend_sum / static_cast<double>(recommend_s.size()), "s",
             "op_tail_ms");
  report.add("broker.candidates", candidates / static_cast<double>(n), "count",
             "op_tail_ms");
  report.add("svc.memo_lookups", lookups / requests, "count", "op_p50_ms");
  report.add("svc.memo_hits", hits / requests, "count", "op_p50_ms");
  report.add("svc.memo_appends", appends / requests, "count", "op_tail_ms");
  report.add("svc.inflight_joins", joins / requests, "count", "op_tail_ms");
  report.add("core.store_hits", store_hits / requests, "count", "op_tail_ms");
  report.add("svc.errors",
             static_cast<double>(report.failed) /
                 static_cast<double>(passes.size()),
             "count", "failed ops per pass");
  report.add("trace.overhead_pct",
             (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%",
             "op_p50_ms traced vs untraced");
  return report;
}

}  // namespace perfbench
