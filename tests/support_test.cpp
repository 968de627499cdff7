// Unit tests for the support module: RNG, statistics, tables, units, CLI.

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "prop_util.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io_util.hpp"
#include "support/record_log.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace hetero {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  bool lo_seen = false;
  bool hi_seen = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(2, 9);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 9);
    lo_seen |= v == 2;
    hi_seen |= v == 9;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(13);
  SampleStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.normal(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  SampleStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.exponential(0.5));
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.bernoulli(0.3);
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Parent and child should not produce identical sequences.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == child.next_u64();
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(29);
  std::vector<std::size_t> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i;
  }
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(Rng, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
  EXPECT_THROW(rng.exponential(0.0), Error);
  EXPECT_THROW(rng.bernoulli(1.5), Error);
}

TEST(SampleStats, BasicMoments) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SampleStats, MergeEqualsBulk) {
  SampleStats a;
  SampleStats b;
  SampleStats all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleStats, MergeWithEmptyIsIdentity) {
  SampleStats a;
  a.add(3.0);
  SampleStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(SampleStats, EmptyMeanThrows) {
  SampleStats s;
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.min(), Error);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
}

TEST(MeanAfterWarmup, DropsLeadingSamples) {
  // The paper discards the first 5 iterations; emulate with 2 here.
  const std::vector<double> v{100.0, 50.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_after_warmup(v, 2), 2.0);
  EXPECT_THROW(mean_after_warmup(v, 5), Error);
}

TEST(Histogram, BinsAndEdgesClampCorrectly) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(2.0);    // bin 1
  h.add(9.99);   // bin 4
  h.add(-3.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 4
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 0u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_THROW(h.bin_count(5), Error);
}

TEST(Histogram, RenderScalesBarsToThePeak) {
  Histogram h(0.0, 2.0, 2);
  for (int i = 0; i < 8; ++i) {
    h.add(0.5);
  }
  h.add(1.5);
  const std::string out = h.render(8);
  // Peak bin gets the full width, the other gets 1/8 of it.
  EXPECT_NE(out.find("########"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

TEST(Table, RendersAlignedTextWithAllRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"bb", "20"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("20"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"k", "v"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, MarkdownHasSeparatorRow) {
  Table t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  t.render_markdown(os);
  EXPECT_NE(os.str().find("|---|"), std::string::npos);
}

TEST(Units, FormatBytesPicksBinaryPrefix) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(Units, FormatSecondsPicksScale) {
  EXPECT_EQ(format_seconds(2e-6), "2.00 us");
  EXPECT_EQ(format_seconds(0.005), "5.00 ms");
  EXPECT_EQ(format_seconds(42.0), "42.00 s");
  EXPECT_EQ(format_seconds(3600.0), "60.0 min");
  EXPECT_EQ(format_seconds(7300.0), "2.03 h");
}

TEST(Units, FormatMoneyUsesCentsBelowDollar) {
  EXPECT_EQ(format_money(0.023), "2.300 cents");
  EXPECT_EQ(format_money(2.4), "$2.40");
}

TEST(Cli, ParsesAllFlagForms) {
  // Note: a bare flag followed by a non-flag token consumes it as a value,
  // so boolean flags must come last or use the --flag=true form.
  const char* argv[] = {"prog",       "--alpha=1.5", "--count", "7",
                        "positional", "--name",      "x",       "--verbose"};
  CliArgs args(8, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(args.get_int("count", 0), 7);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_string("name", ""), "x");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--n=abc", "--b=maybe"};
  CliArgs args(3, argv);
  EXPECT_THROW(args.get_int("n", 0), Error);
  EXPECT_THROW(args.get_bool("b", false), Error);
}

// A violated precondition reads as its message alone, which is what CLI
// users and service clients see; a broken invariant is a heterolab bug and
// names the failed expression and where it sits.
TEST(ErrorMacros, RequireCarriesItsMessageAndCheckItsLocation) {
  try {
    HETERO_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "numbers disagree");
  }
  try {
    HETERO_CHECK(1 == 2);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("check failed: (1 == 2) at "), std::string::npos)
        << what;
    EXPECT_NE(what.find("support_test.cpp:"), std::string::npos) << what;
  }
}

// --- io_util: EINTR / short-write hardening ----------------------------

int g_hook_calls = 0;

/// Adversarial write(2): every odd call fails with EINTR, every even call
/// transfers at most one byte. write_all must still land everything.
ssize_t hostile_write(int fd, const void* data, std::size_t size) {
  ++g_hook_calls;
  if (g_hook_calls % 2 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::write(fd, data, size < 1 ? size : 1);
}

ssize_t broken_write(int, const void*, std::size_t) {
  errno = EIO;
  return -1;
}

struct HookGuard {
  explicit HookGuard(support::WriteHook hook) {
    support::set_write_hook_for_tests(hook);
  }
  ~HookGuard() { support::set_write_hook_for_tests(nullptr); }
};

TEST(IoUtil, WriteAllSurvivesEintrStormsAndShortWrites) {
  const std::string path = "/tmp/heterolab_io_util_test.bin";
  std::remove(path.c_str());
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  const std::string payload = "twelve bytes";
  {
    HookGuard guard(&hostile_write);
    g_hook_calls = 0;
    EXPECT_TRUE(support::write_all(fd, payload.data(), payload.size()));
    // One EINTR + one 1-byte transfer per landed byte.
    EXPECT_GE(g_hook_calls, 2 * static_cast<int>(payload.size()));
  }
  ::close(fd);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, payload);
  std::remove(path.c_str());
}

TEST(IoUtil, WriteAllReportsRealErrorsInsteadOfSpinning) {
  HookGuard guard(&broken_write);
  const char byte = 'x';
  errno = 0;
  EXPECT_FALSE(support::write_all(1, &byte, 1));
  EXPECT_EQ(errno, EIO);
}

TEST(IoUtil, ReadFullDistinguishesEofShortAndError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(support::write_all(fds[1], "abc", 3));
  char buf[8] = {};
  // Short: the stream ended after 3 of 8 bytes.
  ::close(fds[1]);
  EXPECT_EQ(support::read_full(fds[0], buf, sizeof(buf)), 3);
  EXPECT_EQ(std::string(buf, 3), "abc");
  // EOF: nothing left at all.
  EXPECT_EQ(support::read_full(fds[0], buf, sizeof(buf)), 0);
  ::close(fds[0]);
  // Error: closed descriptor.
  EXPECT_EQ(support::read_full(fds[0], buf, sizeof(buf)), -1);
}

// --- record log: format + multi-process append safety ------------------

TEST(RecordLog, RoundTripsAndRecoversAcrossReopen) {
  const std::string path = "/tmp/heterolab_record_log_test.log";
  std::remove(path.c_str());
  {
    support::RecordLog log(path);
    log.append("alpha", "one");
    log.append("beta", std::string("two\0three", 9));
    log.flush();
  }
  support::RecordLog log(path);
  std::vector<std::pair<std::string, std::string>> seen;
  const auto stats = log.recover([&](std::string key, std::string value) {
    seen.emplace_back(std::move(key), std::move(value));
  });
  EXPECT_EQ(stats.recovered_records, 2u);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, "alpha");
  EXPECT_EQ(seen[1].second, std::string("two\0three", 9));
  std::remove(path.c_str());
}

TEST(RecordLog, TornTailIsTruncatedNotFatal) {
  const std::string path = "/tmp/heterolab_record_log_torn.log";
  std::remove(path.c_str());
  {
    support::RecordLog log(path);
    log.append("intact", "value");
    log.flush();
  }
  // A crash mid-append: half a record's worth of garbage at the tail.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("\x31\x53\x4d\x48garbage", 11);
  }
  support::RecordLog log(path);
  int records = 0;
  const auto stats = log.recover([&](std::string, std::string) {
    ++records;
  });
  EXPECT_EQ(records, 1);
  EXPECT_EQ(stats.recovered_records, 1u);
  EXPECT_GT(stats.dropped_bytes, 0u);
  std::remove(path.c_str());
}

// Recovery against seeded damage, the framing the memo store and the worker
// shards share: every mutant of a five-record log either recovers or raises
// hetero::Error; what it delivers is a byte-equal prefix of the records that
// were written; the file is cut to exactly that prefix; and a second
// recover() delivers the same records and cuts nothing.
TEST(RecordLog, RecoverySurvivesSeededMutants) {
  using Records = std::vector<std::pair<std::string, std::string>>;
  const std::string path = "/tmp/heterolab_record_log_mutants.log";
  const Records written = {{"alpha", "one"},
                           {"", "empty key"},
                           {"exp|k", std::string(300, 'x')},
                           {"beta", std::string("two\0three", 9)},
                           {"last", ""}};
  std::remove(path.c_str());
  {
    support::RecordLog log(path);
    for (const auto& [key, value] : written) {
      log.append(key, value);
    }
  }
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  // ends[n]: the length of the file's first n records (20-byte headers).
  std::vector<std::size_t> ends = {0};
  for (const auto& [key, value] : written) {
    ends.push_back(ends.back() + 20 + key.size() + value.size());
  }
  ASSERT_EQ(ends.back(), pristine.size());

  constexpr int kMutants = 10000;
  test::PropRng rng(0x5eed0e4);
  int recovered = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = test::mutate(rng, pristine);
    std::remove(path.c_str());  // a fresh file each time: no rewrite flush
    {
      std::ofstream out(path, std::ios::binary);
      out << mutant;
    }
    try {
      support::RecordLog log(path);
      Records got;
      log.recover([&](std::string key, std::string value) {
        got.emplace_back(std::move(key), std::move(value));
      });
      ASSERT_LE(got.size(), written.size()) << "mutant " << i;
      ASSERT_TRUE(std::equal(got.begin(), got.end(), written.begin()))
          << "mutant " << i << " delivered a record that was not written";
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      ASSERT_EQ(static_cast<std::size_t>(in.tellg()), ends[got.size()])
          << "mutant " << i << " was not cut to its " << got.size()
          << " intact records";
      Records again;
      const auto second =
          log.recover([&](std::string key, std::string value) {
            again.emplace_back(std::move(key), std::move(value));
          });
      ASSERT_EQ(again, got) << "mutant " << i;
      ASSERT_EQ(second.dropped_bytes, 0u) << "mutant " << i;
      ++recovered;
    } catch (const Error&) {
      ++rejected;
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(recovered + rejected, kMutants);
  EXPECT_GT(recovered, 0);
}

TEST(RecordLog, NullLogIsInertAndChecksumIsStable) {
  support::RecordLog log("");
  EXPECT_FALSE(log.is_open());
  log.append("k", "v");  // no-op, no crash
  log.flush();
  int calls = 0;
  log.recover([&](std::string, std::string) { ++calls; });
  EXPECT_EQ(calls, 0);
  // The checksum is part of the on-disk format: pin it against drift.
  EXPECT_EQ(support::record_checksum("k", "v"), support::record_checksum("k", "v"));
  EXPECT_NE(support::record_checksum("k", "v"), support::record_checksum("k", "w"));
  EXPECT_NE(support::record_checksum("kv", ""), support::record_checksum("k", "v"));
}

}  // namespace
}  // namespace hetero
