// Observability layer: trace recorder semantics (ring buffer, Chrome JSON
// shape), scoped spans under a virtual clock, the sharded metrics registry
// under concurrent rank threads, JSON/JSONL round-trips for the bench
// output path, and an end-to-end check that an instrumented direct RD run's
// metrics agree exactly with the ExperimentResult it reports.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "obs/bench_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io_util.hpp"
#include "support/table.hpp"

namespace {

using namespace hetero;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Deterministic manual clock satisfying ScopedSpan's TimeSource contract.
struct FakeClock {
  double t = 0.0;
  double now() const { return t; }
};

/// Installs a recorder for the current scope and uninstalls on exit, so a
/// failing test cannot leak a dangling global recorder into later tests.
class TraceGuard {
 public:
  explicit TraceGuard(obs::TraceRecorder* recorder) {
    obs::set_current_trace(recorder);
  }
  ~TraceGuard() { obs::set_current_trace(nullptr); }
};

TEST(TraceRecorder, RecordsSpansAndInstantsPerRank) {
  obs::TraceRecorder recorder(2);
  recorder.complete(0, "send", "simmpi", 1.0, 1.5, "bytes", 64.0);
  recorder.instant(1, "spot_reclaim", "cloud", 2.0);
  recorder.complete(1, "recv", "simmpi", 2.5, 2.75);

  const auto rank0 = recorder.events(0);
  ASSERT_EQ(rank0.size(), 1u);
  EXPECT_STREQ(rank0[0].name, "send");
  EXPECT_EQ(rank0[0].phase, 'X');
  EXPECT_DOUBLE_EQ(rank0[0].ts_s, 1.0);
  EXPECT_DOUBLE_EQ(rank0[0].dur_s, 0.5);
  EXPECT_STREQ(rank0[0].arg_name, "bytes");
  EXPECT_DOUBLE_EQ(rank0[0].arg, 64.0);

  const auto rank1 = recorder.events(1);
  ASSERT_EQ(rank1.size(), 2u);
  EXPECT_EQ(rank1[0].phase, 'i');
  EXPECT_EQ(rank1[1].phase, 'X');

  const auto merged = recorder.merged();
  ASSERT_EQ(merged.size(), 3u);
  // Sorted by timestamp across ranks.
  EXPECT_DOUBLE_EQ(merged[0].ts_s, 1.0);
  EXPECT_DOUBLE_EQ(merged[2].ts_s, 2.5);
}

TEST(TraceRecorder, RingBufferKeepsNewestAndCountsDrops) {
  obs::TraceRecorder recorder(1, /*capacity_per_rank=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.complete(0, "tick", "test", i, i + 0.5);
  }
  EXPECT_EQ(recorder.recorded(0), 10u);
  EXPECT_EQ(recorder.dropped(0), 6u);
  const auto events = recorder.events(0);
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the survivors: 6, 7, 8, 9.
  EXPECT_DOUBLE_EQ(events.front().ts_s, 6.0);
  EXPECT_DOUBLE_EQ(events.back().ts_s, 9.0);
}

TEST(TraceRecorder, ScopedSpansNestUnderVirtualTime) {
  obs::TraceRecorder recorder(1);
  TraceGuard guard(&recorder);
  obs::bind_trace_rank(0);

  FakeClock clock;
  {
    obs::ScopedSpan outer(clock, "outer", "test");
    clock.t = 1.0;
    {
      obs::ScopedSpan inner(clock, "inner", "test");
      inner.set_arg("work", 7.0);
      clock.t = 2.0;
    }
    clock.t = 3.0;
  }

  const auto events = recorder.events(0);
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and records) first; both lie on the same rank row.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  const double inner_begin = events[0].ts_s;
  const double inner_end = inner_begin + events[0].dur_s;
  const double outer_begin = events[1].ts_s;
  const double outer_end = outer_begin + events[1].dur_s;
  EXPECT_GE(inner_begin, outer_begin);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_DOUBLE_EQ(events[0].arg, 7.0);
}

TEST(TraceRecorder, SpansAreFreeWhenNoRecorderInstalled) {
  // No recorder installed: spans must not crash and must record nothing.
  FakeClock clock;
  {
    obs::ScopedSpan span(clock, "orphan", "test");
    clock.t = 1.0;
  }
  obs::trace_instant("orphan_instant", "test", 2.0);
  EXPECT_EQ(obs::current_trace(), nullptr);
}

TEST(TraceRecorder, ChromeJsonIsWellFormedPerRank) {
  obs::TraceRecorder recorder(3);
  // Interleave ranks with deliberately unsorted insertion order.
  recorder.complete(2, "c", "test", 3.0, 3.5);
  recorder.complete(0, "a", "test", 1.0, 2.0, "bytes", 8.0);
  recorder.instant(1, "b", "test", 2.5);

  const obs::Json doc = recorder.chrome_json();
  ASSERT_TRUE(doc.is_object());
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  int metadata = 0;
  std::vector<double> last_ts(3, -1.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events[i];
    EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 0.0);
    const int tid = static_cast<int>(e.at("tid").as_number());
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, 3);
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      continue;
    }
    // Within a rank row, timestamps must be monotonically non-decreasing
    // (virtual microseconds), or Perfetto renders garbage.
    const double ts = e.at("ts").as_number();
    EXPECT_GE(ts, last_ts[static_cast<std::size_t>(tid)]);
    last_ts[static_cast<std::size_t>(tid)] = ts;
    if (ph == "X") {
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    } else {
      EXPECT_EQ(ph, "i");
    }
  }
  EXPECT_EQ(metadata, 3);  // one thread_name row per rank
  // Span timestamps export as microseconds.
  bool found_a = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events[i];
    if (e.at("name").as_string() == "a") {
      found_a = true;
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 1.0e6);
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 1.0e6);
      EXPECT_DOUBLE_EQ(e.at("args").at("bytes").as_number(), 8.0);
    }
  }
  EXPECT_TRUE(found_a);
}

TEST(Metrics, CountersAggregateAcrossConcurrentThreads) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.concurrent");
  obs::Histogram& histogram = registry.histogram("test.samples");

  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.increment();
        histogram.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_DOUBLE_EQ(counter.value(), kThreads * kIncrements);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), kThreads);
  EXPECT_NEAR(histogram.mean(), (1.0 + kThreads) / 2.0, 1e-12);
}

TEST(Metrics, RegistryReferencesSurviveResetAndExportJson) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("a.count");
  registry.gauge("a.gauge").set(4.5);
  counter.add(3.0);
  // Same name must return the same metric.
  registry.counter("a.count").add(1.0);
  EXPECT_DOUBLE_EQ(counter.value(), 4.0);

  const obs::Json snapshot = registry.to_json();
  EXPECT_DOUBLE_EQ(snapshot.at("counters").at("a.count").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.at("gauges").at("a.gauge").as_number(), 4.5);

  registry.reset();
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  counter.add(2.0);  // the reference is still live after reset
  EXPECT_DOUBLE_EQ(counter.value(), 2.0);
}

TEST(Json, RoundTripsThroughDumpAndParse) {
  obs::Json doc = obs::Json::object();
  doc.set("name", "heterolab");
  doc.set("count", 42);
  doc.set("ratio", 4.44);
  doc.set("ok", true);
  doc.set("missing", obs::Json(nullptr));
  obs::Json list = obs::Json::array();
  list.push_back(1.5);
  list.push_back("two");
  doc.set("list", std::move(list));

  const obs::Json parsed = obs::Json::parse(doc.dump());
  EXPECT_EQ(parsed.dump(), doc.dump());
  EXPECT_EQ(parsed.at("count").as_number(), 42.0);
  EXPECT_TRUE(parsed.at("missing").is_null());
  EXPECT_EQ(parsed.at("list")[1].as_string(), "two");
  EXPECT_THROW(obs::Json::parse("{\"unterminated\": "), Error);
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  // JSON has no NaN/Infinity literal; a failed experiment's non-finite
  // phase time must degrade to null instead of aborting the export.
  EXPECT_EQ(obs::Json(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(obs::Json(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(obs::Json(-std::numeric_limits<double>::infinity()).dump(),
            "null");

  obs::Json row = obs::Json::object();
  row.set("platform", "puma");
  row.set("total_s", std::numeric_limits<double>::quiet_NaN());
  row.set("iters", 12);
  EXPECT_EQ(row.dump(), "{\"platform\":\"puma\",\"total_s\":null,"
                        "\"iters\":12}");
  // And the row still parses back: the bad cell is null, the rest is intact.
  const obs::Json parsed = obs::Json::parse(row.dump());
  EXPECT_TRUE(parsed.at("total_s").is_null());
  EXPECT_DOUBLE_EQ(parsed.at("iters").as_number(), 12.0);
}

/// The number rendering Json::dump() had before it moved to std::to_chars,
/// kept as the oracle: printf's %lld for integral values below 1e15 in
/// magnitude, %.17g for everything else finite, null for NaN and ±inf.
std::string printf_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

TEST(Json, NumbersKeepThePrintfBytes) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1.0 / 3.0, 4.44, 1e-7, 123.456,
      // subnormals, the normal boundary, the extremes
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN / 2.0, DBL_MIN,
      -DBL_MIN, std::nextafter(DBL_MIN, 0.0), DBL_MAX, -DBL_MAX,
      // integers around the %lld / %.17g switch at 1e15
      1e15, -1e15, 1e15 - 1.0, -(1e15 - 1.0), 1e15 + 1.0, -(1e15 + 1.0),
      std::nextafter(1e15, 0.0), std::nextafter(1e15, inf),
      std::nextafter(-1e15, 0.0), std::nextafter(-1e15, -inf),
      9007199254740992.0, -9223372036854775808.0, 1e300, 1e-300,
      // non-finite values render as null
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(), inf, -inf};
  for (const double v : values) {
    EXPECT_EQ(obs::Json(v).dump(), printf_number(v)) << bits_of(v);
  }

  // Random bit patterns cover every exponent (and NaN payloads); random
  // integers and decimals of report-like magnitude cover the %lld path
  // and the short %.17g forms that random exponents almost never hit.
  std::mt19937_64 rng(0x6a736f6e);
  std::uniform_int_distribution<long long> integers(-2'000'000'000'000'000LL,
                                                    2'000'000'000'000'000LL);
  std::uniform_real_distribution<double> decimals(-1e6, 1e6);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  const auto check = [&](double v) {
    ++checked;
    const std::string got = obs::Json(v).dump();
    const std::string want = printf_number(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << bits_of(v) << ": got " << got << ", want " << want;
    }
  };
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    check(v);
  }
  for (int i = 0; i < 100'000; ++i) {
    check(static_cast<double>(integers(rng)));
    check(decimals(rng));
  }
  EXPECT_EQ(checked, 1'200'000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, SurrogatePairsDecodeToSupplementaryPlane) {
  // \uD83D\uDE00 is U+1F600, UTF-8 f0 9f 98 80.
  const obs::Json parsed = obs::Json::parse("\"\\uD83D\\uDE00\"");
  EXPECT_EQ(parsed.as_string(), "\xF0\x9F\x98\x80");
  // BMP escapes still decode as before.
  EXPECT_EQ(obs::Json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");
  EXPECT_EQ(obs::Json::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, UnpairedSurrogatesAreRejected) {
  // Lone high surrogate at end of string.
  EXPECT_THROW(obs::Json::parse("\"\\uD83D\""), Error);
  // High surrogate followed by a non-surrogate escape.
  EXPECT_THROW(obs::Json::parse("\"\\uD83D\\u0041\""), Error);
  // High surrogate followed by plain text.
  EXPECT_THROW(obs::Json::parse("\"\\uD83Dxy\""), Error);
  // Lone low surrogate.
  EXPECT_THROW(obs::Json::parse("\"\\uDE00\""), Error);
}

TEST(Json, NumberGrammarIsStrict) {
  // The scanner used to hand any sign/digit/dot soup to strtod; these are
  // all invalid JSON and must now fail to parse.
  EXPECT_THROW(obs::Json::parse("+1"), Error);
  EXPECT_THROW(obs::Json::parse("01"), Error);
  EXPECT_THROW(obs::Json::parse("-01"), Error);
  EXPECT_THROW(obs::Json::parse("1."), Error);
  EXPECT_THROW(obs::Json::parse(".5"), Error);
  EXPECT_THROW(obs::Json::parse("1e"), Error);
  EXPECT_THROW(obs::Json::parse("1e+"), Error);
  EXPECT_THROW(obs::Json::parse("--1"), Error);
  EXPECT_THROW(obs::Json::parse("1-2"), Error);
  EXPECT_THROW(obs::Json::parse("1.2.3"), Error);
  EXPECT_THROW(obs::Json::parse("[1, +2]"), Error);

  // The full valid grammar still parses.
  EXPECT_DOUBLE_EQ(obs::Json::parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(obs::Json::parse("-0.5").as_number(), -0.5);
  EXPECT_DOUBLE_EQ(obs::Json::parse("10.25").as_number(), 10.25);
  EXPECT_DOUBLE_EQ(obs::Json::parse("2e3").as_number(), 2000.0);
  EXPECT_DOUBLE_EQ(obs::Json::parse("2E-3").as_number(), 0.002);
  EXPECT_DOUBLE_EQ(obs::Json::parse("1.5e+2").as_number(), 150.0);
}

TEST(BenchIo, FieldNamesAndCellValuesMatchTheJsonlSchema) {
  EXPECT_EQ(obs::field_name("assembly[s]"), "assembly_s");
  EXPECT_EQ(obs::field_name("full real cost[$]"), "full_real_cost_usd");
  EXPECT_EQ(obs::field_name("# mpi"), "mpi");
  EXPECT_EQ(obs::field_name("nodal error"), "nodal_error");

  EXPECT_TRUE(obs::cell_value("-").is_null());
  EXPECT_TRUE(obs::cell_value("").is_null());
  EXPECT_DOUBLE_EQ(obs::cell_value("4.44").as_number(), 4.44);
  EXPECT_EQ(obs::cell_value("FAILED: reason").as_string(), "FAILED: reason");
}

TEST(BenchIo, JsonlRoundTripsThroughWriterAndReader) {
  const std::string path = temp_path("obs_test_roundtrip.jsonl");
  {
    obs::JsonlWriter writer(path);
    obs::Json a = obs::Json::object();
    a.set("x", 1);
    obs::Json b = obs::Json::object();
    b.set("y", "two");
    writer.write(a);
    writer.write(b);
  }
  const auto records = obs::read_jsonl(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].at("x").as_number(), 1.0);
  EXPECT_EQ(records[1].at("y").as_string(), "two");
  std::remove(path.c_str());
}

/// Interposed write(2) for the EINTR regression: alternates a spurious
/// EINTR failure with a 1-byte transfer. (unistd.h write — the hook runs
/// under support::write_all, which must retry both cases.)
ssize_t eintr_stormy_write(int fd, const void* data, std::size_t size) {
  static int calls = 0;
  if (++calls % 2 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::write(fd, data, size < 1 ? size : 1);
}

TEST(BenchIo, JsonlWriterLandsWholeLinesThroughEintrStorms) {
  const std::string path = temp_path("obs_test_eintr.jsonl");
  // About 1.5 chunks of records: one chunk goes out mid-stream, the rest
  // at close(), both through the storm.
  constexpr int kRecords = 3000;
  const auto file_bytes = [&] {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    if (f != nullptr) {
      std::fclose(f);
    }
    return bytes;
  };
  {
    obs::JsonlWriter writer(path);
    support::set_write_hook_for_tests(&eintr_stormy_write);
    for (int i = 0; i < kRecords; ++i) {
      obs::Json record = obs::Json::object();
      record.set("i", i);
      record.set("label", "record-" + std::to_string(i));
      writer.write(record);
    }
    // Whole lines only, and at least one chunk, reach the file before
    // close().
    const std::string early = file_bytes();
    EXPECT_GE(early.size(), obs::JsonlWriter::kChunkBytes);
    EXPECT_TRUE(!early.empty() && early.back() == '\n');
    writer.close();
    support::set_write_hook_for_tests(nullptr);
  }
  // Despite every write(2) either failing with EINTR or moving one byte,
  // every record must come back whole and in order.
  const auto records = obs::read_jsonl(path);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_DOUBLE_EQ(records[i].at("i").as_number(), i);
    EXPECT_EQ(records[i].at("label").as_string(),
              "record-" + std::to_string(i));
  }
  std::remove(path.c_str());
}

TEST(BenchIo, ReporterStampsSchemaAndTurnsTablesIntoRecords) {
  const std::string path = temp_path("obs_test_reporter.jsonl");
  {
    const char* argv[] = {"bench", "--json", path.c_str()};
    const CliArgs args(3, argv);
    obs::BenchReporter reporter(args, "unit_bench");
    Table table({"platform", "total[s]", "status"});
    table.add_row({"puma", "13.17", "ok"});
    table.add_row({"puma", "-", "FAILED: too big"});
    reporter.add_table(table);
  }  // destructor writes the file
  const auto records = obs::read_jsonl(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("schema").as_string(), "heterolab-bench-v1");
  EXPECT_EQ(records[0].at("bench").as_string(), "unit_bench");
  EXPECT_DOUBLE_EQ(records[0].at("total_s").as_number(), 13.17);
  EXPECT_TRUE(records[1].at("total_s").is_null());
  EXPECT_EQ(records[1].at("status").as_string(), "FAILED: too big");
  std::remove(path.c_str());
}

TEST(BenchIo, ReporterWithoutJsonFlagWritesNothing) {
  const char* argv[] = {"bench"};
  const CliArgs args(1, argv);
  obs::BenchReporter reporter(args, "unit_bench");
  Table table({"a"});
  table.add_row({"1"});
  reporter.add_table(table);  // must be a no-op, not a crash
}

// End-to-end: run the real RD solver through simmpi with tracing and
// metrics on, then cross-check all three outputs against each other.
TEST(ObsIntegration, DirectRdRunProducesCoherentTraceAndMetrics) {
  const std::string trace_path = temp_path("obs_test_rd.trace.json");
  obs::metrics().reset();

  core::Experiment e;
  e.app = perf::AppKind::kReactionDiffusion;
  e.platform = "puma";
  e.ranks = 8;
  e.cells_per_rank_axis = 4;
  e.mode = core::Mode::kDirect;
  e.direct_steps = 3;
  e.trace_path = trace_path;

  core::ExperimentRunner runner(42);
  const auto result = runner.run(e);
  ASSERT_TRUE(result.launched) << result.failure_reason;

  // --- metrics vs the reported result ---------------------------------------
  auto& registry = obs::metrics();
  const double steps = registry.counter("app.steps").value();
  ASSERT_EQ(steps, 3.0);
  // record_phase_metrics accumulates the same allreduced per-step maxima
  // that ExperimentResult averages, so the quotient matches exactly.
  EXPECT_NEAR(registry.counter("app.phase.assembly_s").value() / steps,
              result.iteration.assembly_s, 1e-12);
  EXPECT_NEAR(registry.counter("app.phase.preconditioner_s").value() / steps,
              result.iteration.preconditioner_s, 1e-12);
  EXPECT_NEAR(registry.counter("app.phase.solve_s").value() / steps,
              result.iteration.solve_s, 1e-12);
  EXPECT_GT(registry.counter("simmpi.messages").value(), 0.0);
  EXPECT_GT(registry.counter("la.halo.exchanges").value(), 0.0);
  // Every rank participates in one collective Krylov solve per step.
  EXPECT_DOUBLE_EQ(registry.counter("solvers.solves").value(),
                   steps * e.ranks);
  EXPECT_GT(registry.counter("solvers.iterations").value(), 0.0);

  // --- the trace file -------------------------------------------------------
  const auto records = obs::read_jsonl(trace_path);  // single-line JSON doc
  ASSERT_EQ(records.size(), 1u);
  const obs::Json& doc = records[0];
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 8u);

  std::vector<double> last_ts(8, -1.0);
  std::vector<int> spans_per_rank(8, 0);
  std::vector<int> sends(8, 0);
  std::vector<int> recvs(8, 0);
  std::vector<int> iterations(8, 0);
  int metadata = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& event = events[i];
    EXPECT_DOUBLE_EQ(event.at("pid").as_number(), 0.0);
    const int tid = static_cast<int>(event.at("tid").as_number());
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, 8);
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const double ts = event.at("ts").as_number();
    EXPECT_GE(ts, last_ts[static_cast<std::size_t>(tid)]);
    last_ts[static_cast<std::size_t>(tid)] = ts;
    if (ph == "X") {
      ++spans_per_rank[static_cast<std::size_t>(tid)];
    }
    const std::string& name = event.at("name").as_string();
    const auto row = static_cast<std::size_t>(tid);
    sends[row] += name == "send" ? 1 : 0;
    recvs[row] += name == "recv" ? 1 : 0;
    iterations[row] += name == "iteration" ? 1 : 0;
  }
  EXPECT_EQ(metadata, 8);  // a thread_name row per rank
  // Ranks share host threads as fibers, and the trace row is per thread,
  // so it must follow every switch: each rank's halo sends and receives
  // pair up on its own row (every exchange is symmetric), and the solver's
  // per-iteration instants, recorded on the bound row, appear once per
  // iteration on every rank's row.
  int total_sends = 0;
  for (int r = 0; r < 8; ++r) {
    const auto row = static_cast<std::size_t>(r);
    EXPECT_GT(spans_per_rank[row], 0) << "rank " << r << " recorded no spans";
    EXPECT_GT(sends[row], 0) << "rank " << r;
    EXPECT_EQ(sends[row], recvs[row]) << "rank " << r;
    EXPECT_GT(iterations[row], 0) << "rank " << r;
    EXPECT_EQ(iterations[row], iterations[0]) << "rank " << r;
    total_sends += sends[row];
  }
  EXPECT_EQ(static_cast<double>(total_sends),
            registry.counter("simmpi.messages").value());

  // The run's fibers used this thread too; host-side code recording after
  // run() must land on the host row 0 again.
  obs::TraceRecorder host_trace(8, 16);
  obs::set_current_trace(&host_trace);
  obs::trace_instant("after_run", "test", 0.0);
  obs::set_current_trace(nullptr);
  ASSERT_EQ(host_trace.events(0).size(), 1u);
  EXPECT_STREQ(host_trace.events(0)[0].name, "after_run");
  std::remove(trace_path.c_str());
}

// With no trace requested, a second run must not write anything and the
// recorder global must stay uninstalled (the RAII guard in run_direct).
TEST(ObsIntegration, TracePathEmptyLeavesGlobalRecorderUninstalled) {
  core::Experiment e;
  e.platform = "puma";
  e.ranks = 1;
  e.cells_per_rank_axis = 4;
  e.mode = core::Mode::kDirect;
  e.direct_steps = 2;
  core::ExperimentRunner runner(42);
  const auto result = runner.run(e);
  ASSERT_TRUE(result.launched);
  EXPECT_EQ(obs::current_trace(), nullptr);
}

}  // namespace
