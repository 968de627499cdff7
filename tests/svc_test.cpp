// Tests for the advisory service: wire protocol, persistent memo store
// (including corruption recovery), the bit-exact result codec, and both
// transports end to end — warm restarts must be byte-identical.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "codec_fixtures.hpp"
#include "core/campaign_engine.hpp"
#include "obs/json.hpp"
#include "prop_util.hpp"
#include "support/error.hpp"
#include "svc/memo_store.hpp"
#include "svc/protocol.hpp"
#include "svc/result_codec.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace {

using namespace hetero;

struct TempFile {
  explicit TempFile(const std::string& name) : path("/tmp/" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string small_request(int id, int ranks = 8,
                          const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) +
         ",\"app\":\"rd\",\"ranks\":" + std::to_string(ranks) +
         ",\"iterations\":10,\"frontier\":false" + extra + "}";
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// --- protocol ---------------------------------------------------------

TEST(SvcProtocol, ParsesDefaultsAndAllFields) {
  const auto req = svc::parse_request_line(
      R"({"id":7,"app":"ns","elements":500000,"iterations":20,)"
      R"("deadline_h":12,"budget_usd":9.5,"risk":0.25,)"
      R"("risk_budget_usd":3,"ported":true,"objective":"cost",)"
      R"("frontier":false,"top":4,"client":"alice"})");
  EXPECT_EQ(req.kind, svc::SvcRequest::Kind::kJob);
  EXPECT_EQ(req.id, 7);
  EXPECT_EQ(req.client, "alice");
  EXPECT_EQ(req.job.app, perf::AppKind::kNavierStokes);
  EXPECT_EQ(req.job.total_elements, 500000);
  EXPECT_EQ(req.job.iterations, 20);
  ASSERT_TRUE(req.job.deadline_h.has_value());
  EXPECT_DOUBLE_EQ(*req.job.deadline_h, 12.0);
  ASSERT_TRUE(req.job.budget_usd.has_value());
  EXPECT_DOUBLE_EQ(*req.job.budget_usd, 9.5);
  EXPECT_DOUBLE_EQ(req.job.risk_tolerance, 0.25);
  ASSERT_TRUE(req.job.risk_budget_usd.has_value());
  EXPECT_DOUBLE_EQ(*req.job.risk_budget_usd, 3.0);
  EXPECT_FALSE(req.job.include_provisioning);  // ported inverts it
  EXPECT_EQ(req.objective, "cost");
  EXPECT_FALSE(req.want_frontier);
  EXPECT_EQ(req.top, 4);

  const auto defaults = svc::parse_request_line(R"({"id":0})");
  EXPECT_EQ(defaults.client, "anon");
  EXPECT_EQ(defaults.objective, "effective");
  EXPECT_TRUE(defaults.want_frontier);
  EXPECT_TRUE(defaults.job.include_provisioning);
}

TEST(SvcProtocol, StrictParseRejections) {
  EXPECT_THROW(svc::parse_request_line(R"({"id":1,"frobnicate":1})"), Error);
  EXPECT_THROW(svc::parse_request_line(R"({"app":"rd"})"), Error);  // no id
  EXPECT_THROW(svc::parse_request_line(R"({"id":-1})"), Error);
  EXPECT_THROW(svc::parse_request_line(R"({"id":1,"app":"xx"})"), Error);
  EXPECT_THROW(
      svc::parse_request_line(R"({"id":1,"objective":"fastest"})"), Error);
  EXPECT_THROW(svc::parse_request_line(R"({"id":1,"schema":"v0"})"), Error);
  EXPECT_THROW(svc::parse_request_line(R"({"id":1,"type":"query"})"), Error);
  EXPECT_THROW(svc::parse_request_line("not json"), Error);
  EXPECT_THROW(svc::parse_request_line(R"({"id":1.5})"), Error);
  // Integers outside their field's type are rejected, never wrapped,
  // saturated or read as absent.
  for (const char* line : {
           R"({"id":2,"app":"rd","ranks":4294967304})",  // 2^32 + 8
           R"({"id":2,"iterations":4294967396})",        // 2^32 + 100
           R"({"id":2,"top":2147483648})",               // INT_MAX + 1
           R"({"id":2,"elements":1e300})",
           R"({"id":2,"ranks":1e300})",
           R"({"id":1e300})",
       }) {
    SCOPED_TRACE(line);
    try {
      svc::parse_request_line(line);
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("' is out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

// A client reads the rejection's message alone: no C++ check expression and
// no source path, so the answer bytes do not depend on the build directory.
TEST(SvcProtocol, OutOfRangeRequestIsAnsweredWithItsMessageOnly) {
  svc::Service service(svc::ServiceOptions{});
  EXPECT_EQ(
      service.process_line(R"({"id":1,"app":"rd","ranks":4294967304})"),
      std::vector<std::string>{
          R"({"schema":"heterolab-svc-v1","type":"error","id":null,)"
          R"("reason":"svc request: 'ranks' is out of range"})"});
}

// 20,000 seeded mutants of two request lines, one with every job key and
// one with every rebroker key: each either parses or raises hetero::Error,
// and whatever parses as JSON re-dumps to a fixed point.
TEST(SvcProtocol, RequestLinesSurviveSeededMutants) {
  const std::string lines[] = {
      R"({"schema":"heterolab-svc-v1","type":"request","id":7,)"
      R"("client":"alice","app":"ns","elements":500000,"ranks":8,)"
      R"("cells":20,"iterations":20,"deadline_h":12,"budget_usd":9.5,)"
      R"("risk":0.25,"risk_budget_usd":3,"ported":true,)"
      R"("objective":"cost","frontier":false,"top":4})",
      R"({"schema":"heterolab-svc-v1","type":"rebroker","id":9,)"
      R"("client":"bob","app":"rd","ranks":64,"cells":20,)"
      R"("platform":"ec2","fallback":"puma","steps":100,"done":40,)"
      R"("observed_s":0.3,"storms":2,"hysteresis":0.2,"deadline_s":3600,)"
      R"("migrate_budget_usd":1.25,"target_ranks":27})",
  };
  for (std::size_t f = 0; f < 2; ++f) {
    SCOPED_TRACE("fixture " + std::to_string(f));
    ASSERT_NO_THROW(svc::parse_request_line(lines[f]));
    test::PropRng rng(0x5eed5c0 + f);
    int parsed = 0;
    int rejected = 0;
    int foreign = 0;
    int unstable = 0;
    for (int i = 0; i < 10000; ++i) {
      const std::string mutant = test::mutate(rng, lines[f]);
      try {
        const obs::Json json = obs::Json::parse(mutant);
        const std::string dumped = json.dump();
        if (obs::Json::parse(dumped).dump() != dumped) {
          ++unstable;
        }
        svc::parse_request(json);
        ++parsed;
      } catch (const Error&) {
        ++rejected;
      } catch (const std::exception&) {
        ++foreign;
      }
    }
    EXPECT_EQ(foreign, 0);
    EXPECT_EQ(unstable, 0);
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
  }
}

TEST(SvcProtocol, CacheKeySeparatesEveryAnswerField) {
  const auto base = svc::parse_request_line(small_request(1));
  const std::string key = svc::request_cache_key(base, 42);
  // The id and client never reach the payload, so they must not split the
  // cache; everything that changes the answer must.
  auto other = svc::parse_request_line(small_request(999));
  other.client = "bob";
  EXPECT_EQ(svc::request_cache_key(other, 42), key);
  EXPECT_NE(svc::request_cache_key(base, 43), key);
  EXPECT_NE(svc::request_cache_key(
                svc::parse_request_line(small_request(1, 27)), 42),
            key);
  EXPECT_NE(svc::request_cache_key(
                svc::parse_request_line(
                    small_request(1, 8, ",\"objective\":\"cost\"")),
                42),
            key);
  EXPECT_NE(svc::request_cache_key(
                svc::parse_request_line(small_request(1, 8, ",\"top\":3")),
                42),
            key);
}

// The advisory daemon's `req|` store entries are keyed on this text.
TEST(SvcProtocol, CacheKeyGoldenText) {
  const auto base = svc::parse_request_line(small_request(1));
  EXPECT_EQ(svc::request_cache_key(base, 42),
            "req-v1|0|0|8|20|10|-|-|4602678819172646912|-|1|effective|0|0|42");
  svc::SvcRequest rb;
  rb.kind = svc::SvcRequest::Kind::kRebroker;
  rb.job.ranks = 64;
  rb.rb.steps = 100;
  rb.rb.done = 40;
  rb.rb.observed_s = 0.1 + 0.2;
  rb.rb.storms = 2;
  rb.rb.hysteresis = 0.2;
  rb.rb.deadline_s = 3600.0;
  rb.rb.migrate_budget_usd = 1.25;
  rb.rb.target_ranks = 27;
  EXPECT_EQ(svc::request_cache_key(rb, 42),
            "req-v1|rb|0|64|20|ec2|puma|100|40|4599075939470750516|2|"
            "4596373779694328218|4660134898793709568|4608308318706860032|27|"
            "42");
}

TEST(SvcProtocol, FinalizeSubstitutesTheIdToken) {
  EXPECT_EQ(svc::finalize_line(R"({"id":"@ID@","x":1})", 17),
            R"({"id":17,"x":1})");
  EXPECT_THROW(svc::finalize_line(R"({"id":3})", 17), Error);
}

// --- result codec -----------------------------------------------------

TEST(SvcResultCodec, RoundTripsBitExactly) {
  core::ExperimentResult r;
  r.launched = true;
  r.hosts = 13;
  r.queue_wait_s = 0.1 + 0.2;  // not representable exactly: bit test
  r.provisioning_hours = 11.65;
  r.iteration.assembly_s = 1.0 / 3.0;
  r.iteration.preconditioner_s = 2e-9;
  r.iteration.solve_s = 123.456789012345678;
  r.iteration.total_s = r.iteration.assembly_s + r.iteration.solve_s;
  r.iteration.solver_iterations = 87.0;
  r.cost_per_iteration_usd = 0.007;
  r.est_cost_per_iteration_usd = 0.0065;
  r.spot_hosts = 4;
  r.work_per_rank.local_tets = 1234567890123;
  r.work_per_rank.local_rows = 42;
  r.work_per_rank.halo_doubles = -1;
  r.work_per_rank.solver_iterations = 87;
  r.nodal_error = 3.0303e-12;
  r.solver_converged = true;
  r.resil.attempts = 3;
  r.resil.recovered = true;
  r.resil.wasted_cost_usd = 0.25;
  r.resil.final_ranks = 64;

  const auto decoded = svc::decode_result(svc::encode_result(r));
  EXPECT_EQ(decoded.launched, r.launched);
  EXPECT_EQ(decoded.hosts, r.hosts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.queue_wait_s),
            std::bit_cast<std::uint64_t>(r.queue_wait_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.iteration.solve_s),
            std::bit_cast<std::uint64_t>(r.iteration.solve_s));
  EXPECT_EQ(decoded.work_per_rank.local_tets, r.work_per_rank.local_tets);
  EXPECT_EQ(decoded.work_per_rank.halo_doubles,
            r.work_per_rank.halo_doubles);
  EXPECT_EQ(decoded.resil.attempts, r.resil.attempts);
  EXPECT_EQ(decoded.resil.recovered, r.resil.recovered);
  EXPECT_EQ(decoded.resil.final_ranks, r.resil.final_ranks);
  EXPECT_EQ(svc::encode_result(decoded), svc::encode_result(r));

  core::ExperimentResult failed;
  failed.launched = false;
  failed.failure_reason = "queue limit: max 16 nodes per job";
  const auto failed2 = svc::decode_result(svc::encode_result(failed));
  EXPECT_FALSE(failed2.launched);
  EXPECT_EQ(failed2.failure_reason, failed.failure_reason);
}

// HMS1 `exp|` values written by earlier builds must replay warm: the bytes
// of a result with every field set are pinned (kResultCodecVersion 3).
TEST(SvcResultCodec, GoldenBytesOfEveryFieldResult) {
  const std::string bytes = svc::encode_result(test::every_field_result());
  EXPECT_EQ(bytes.size(), 433u);
  EXPECT_EQ(test::fnv1a64(bytes), 0xcd3375d4f9901a8dull);
}

TEST(SvcResultCodec, RejectsMalformedPayloads) {
  core::ExperimentResult r;
  std::string bytes = svc::encode_result(r);
  const std::string good = bytes;
  EXPECT_THROW(svc::decode_result(bytes + "x"), Error);  // trailing junk
  EXPECT_THROW(svc::decode_result(bytes.substr(0, bytes.size() - 3)), Error);
  bytes[0] = 99;  // unknown version
  EXPECT_THROW(svc::decode_result(bytes), Error);
  EXPECT_THROW(svc::decode_result(""), Error);

  // Crafted payloads. Layout of the default result: version [0], launched
  // (one bool byte) [1], failure_reason length [2,10) and no bytes, five
  // doubles up to 66, hosts [66,74), ...; the trail count sits just before
  // the balance ledger's three words.
  const std::size_t trail_at = good.size() - 8 - 24;
  ASSERT_EQ(test::with_word(good, trail_at, 0), good);
  // A string length of 2^64-1 must not wrap the reader's bounds check. A
  // reader that adds the length to its position steps back one byte and
  // re-reads the failure reason's bytes as the later fields.
  const std::string wrapped = good.substr(0, 2) + std::string(8, '\xff') +
                              std::string(7, '\0') + good.substr(18);
  EXPECT_THROW(svc::decode_result(wrapped), Error);
  // An int field holding 2^32+8 must not narrow silently to 8.
  EXPECT_THROW(svc::decode_result(test::with_word(good, 66, (1ull << 32) + 8)),
               Error);
  // Huge string counts must be rejected before anything is reserved.
  EXPECT_THROW(svc::decode_result(test::with_word(good, trail_at, 1ull << 40)),
               Error);
  EXPECT_THROW(svc::decode_result(test::with_word(good, trail_at, ~0ull)),
               Error);
  // A bool byte other than 0 or 1 would re-encode differently.
  std::string bad_bool = good;
  bad_bool[1] = '\2';
  EXPECT_THROW(svc::decode_result(bad_bool), Error);
}

// Every field of core::visit_fields reaches the payload and round-trips,
// with no hand-kept list of fields to forget one in.
TEST(SvcResultCodec, ChangesWithEveryField) {
  const core::ExperimentResult base = test::every_field_result();
  const auto fields = test::field_bytes(base);
  const auto defaults = test::field_bytes(core::ExperimentResult{});
  const std::string payload = svc::encode_result(base);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    SCOPED_TRACE("field " + std::to_string(i));
    EXPECT_NE(fields[i], defaults[i]);  // the golden fixture covers it
    const core::ExperimentResult changed = test::with_field_perturbed(base, i);
    const auto changed_fields = test::field_bytes(changed);
    for (std::size_t j = 0; j < fields.size(); ++j) {
      EXPECT_EQ(changed_fields[j] == fields[j], j != i) << "field " << j;
    }
    const std::string bytes = svc::encode_result(changed);
    EXPECT_NE(bytes, payload);
    const core::ExperimentResult decoded = svc::decode_result(bytes);
    EXPECT_EQ(test::field_bytes(decoded), changed_fields);
    EXPECT_EQ(svc::encode_result(decoded), bytes);
  }
}

// 20,000 seeded mutants of a payload with every field set: each one either
// raises hetero::Error or decodes to a value that re-encodes to its bytes.
TEST(SvcResultCodec, SurvivesSeededMutants) {
  const auto tally = test::run_mutants(
      0x5eed0e2, svc::encode_result(test::every_field_result()), 20000,
      [](const std::string& b) { return svc::decode_result(b); },
      [](const core::ExperimentResult& r) { return svc::encode_result(r); });
  EXPECT_EQ(tally.misread, 0);
  EXPECT_EQ(tally.foreign, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.decoded, 0);
}

// A store record another codec version wrote is missed, never misread: the
// engine recomputes instead of failing, in single runs and in batches.
TEST(SvcResultCodec, UnreadableStoredRecordIsAMiss) {
  TempFile log("svc_memo_stale_codec.log");
  core::Experiment e;
  e.ranks = 8;
  const std::string key = core::experiment_cache_key(e, 42);
  const std::string fresh =
      svc::encode_result(core::ExperimentRunner(42).run(e));
  std::string stale = fresh;
  stale.resize(stale.size() - 24);  // v2 had no load-balancing ledger
  stale[0] = 2;
  svc::MemoStore store(log.path);
  store.append("exp|" + key, stale);
  svc::MemoResultStore adapter(store);
  core::ExperimentResult out;
  EXPECT_FALSE(adapter.load(key, out));

  core::CampaignEngineOptions opt;
  opt.jobs = 1;
  opt.result_store = &adapter;
  core::CampaignEngine single(42, opt);
  EXPECT_EQ(svc::encode_result(single.run(e)), fresh);
  EXPECT_EQ(single.stats().store_hits, 0u);
  core::CampaignEngine batch(42, opt);
  for (const auto& r : batch.run_batch({e, e})) {
    EXPECT_EQ(svc::encode_result(r), fresh);
  }
  EXPECT_EQ(batch.stats().store_hits, 0u);
}

// --- memo store -------------------------------------------------------

TEST(MemoStore, PersistsAcrossReopen) {
  TempFile log("svc_memo_reopen.log");
  {
    svc::MemoStore store(log.path);
    store.append("alpha", "1");
    store.append("beta", std::string("\0\n\xff binary", 10));
    store.append("alpha", "SHADOWED");  // content-addressed: first wins
    EXPECT_EQ(store.size(), 2u);
  }
  svc::MemoStore store(log.path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().recovered_records, 2u);
  EXPECT_EQ(store.stats().dropped_bytes, 0u);
  std::string v;
  ASSERT_TRUE(store.lookup("alpha", &v));
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(store.lookup("beta", &v));
  EXPECT_EQ(v, std::string("\0\n\xff binary", 10));
  EXPECT_FALSE(store.lookup("gamma", &v));
}

TEST(MemoStore, TruncatedTailDropsOnlyTheTornRecord) {
  TempFile log("svc_memo_torn.log");
  std::size_t full_size = 0;
  {
    svc::MemoStore store(log.path);
    store.append("k1", "v1");
    store.append("k2", "v2");
    store.append("k3", "v3");
  }
  {
    std::ifstream in(log.path, std::ios::binary | std::ios::ate);
    full_size = static_cast<std::size_t>(in.tellg());
  }
  ASSERT_EQ(::truncate(log.path.c_str(),
                       static_cast<off_t>(full_size - 3)),
            0);  // tear the last record mid-value
  svc::MemoStore store(log.path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_GT(store.stats().dropped_bytes, 0u);
  std::string v;
  EXPECT_TRUE(store.lookup("k1", &v));
  EXPECT_TRUE(store.lookup("k2", &v));
  EXPECT_FALSE(store.lookup("k3", &v));
  // The log is healthy again: appends after recovery survive a reopen.
  store.append("k4", "v4");
  store.flush();
  svc::MemoStore reopened(log.path);
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_TRUE(reopened.lookup("k4", &v));
  EXPECT_EQ(v, "v4");
}

TEST(MemoStore, FlippedChecksumByteDropsTheDamagedSuffix) {
  TempFile log("svc_memo_flip.log");
  {
    svc::MemoStore store(log.path);
    store.append("k1", "value-one");
    store.append("k2", "value-two");
    store.append("k3", "value-three");
  }
  // Flip one byte inside the second record's checksum field. Records are
  // [magic u32][key_len u32][value_len u32][checksum u64][key][value]:
  // record 1 spans 20 + 2 + 9 bytes, so record 2's checksum starts at
  // offset 31 + 12.
  {
    std::fstream f(log.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(31 + 12);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(31 + 12);
    f.write(&byte, 1);
  }
  svc::MemoStore store(log.path);
  // Recovery keeps the intact prefix and drops everything from the
  // damaged record on — k3 is collateral, by design (append-only log).
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().recovered_records, 1u);
  EXPECT_GT(store.stats().dropped_bytes, 0u);
  std::string v;
  EXPECT_TRUE(store.lookup("k1", &v));
  EXPECT_EQ(v, "value-one");
  EXPECT_FALSE(store.lookup("k2", &v));
  EXPECT_FALSE(store.lookup("k3", &v));
}

TEST(MemoStore, InMemoryModeWorksWithoutAFile) {
  svc::MemoStore store("");
  store.append("k", "v");
  store.flush();
  std::string v;
  EXPECT_TRUE(store.lookup("k", &v));
  EXPECT_EQ(store.fetch_or_compute("k", [] { return std::string("X"); }),
            "v");
}

TEST(MemoStore, ConcurrentFetchOrComputeRunsTheComputeOnce) {
  svc::MemoStore store("");
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  std::vector<std::string> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] =
          store.fetch_or_compute("shared", [&] {
            computes.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::string("the-answer");
          });
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(computes.load(), 1);
  for (const auto& r : results) {
    EXPECT_EQ(r, "the-answer");
  }
}

TEST(MemoStore, FailedComputeReleasesTheKeyForRetry) {
  svc::MemoStore store("");
  EXPECT_THROW(store.fetch_or_compute(
                   "k", []() -> std::string { throw Error("boom"); }),
               Error);
  EXPECT_EQ(store.fetch_or_compute("k", [] { return std::string("ok"); }),
            "ok");
}

// --- service + pipe transport -----------------------------------------

TEST(SvcServe, AnswersAStreamWithMonotoneIdsAndDrainsToBye) {
  svc::Service service(svc::ServiceOptions{});
  std::istringstream in(
      "{\"id\":0,\"type\":\"ping\"}\n" + small_request(1) + "\n" +
      "this is not json\n" +
      small_request(3, 8, ",\"frontier\":true,\"top\":2") + "\n" +
      "{\"id\":4,\"type\":\"shutdown\"}\n" + small_request(5) + "\n");
  std::ostringstream out;
  const auto stats = svc::serve_pipe(service, in, out);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.pings, 1u);
  EXPECT_EQ(stats.errors, 1u);

  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"type\":\"pong\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":null"), std::string::npos);
  // Request 3 asked for the frontier and 2 ranked alternates.
  bool saw_frontier = false;
  bool saw_ranked = false;
  for (const auto& line : lines) {
    saw_frontier |= line.find("\"type\":\"frontier\"") != std::string::npos;
    saw_ranked |= line.find("\"type\":\"ranked\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_frontier);
  EXPECT_TRUE(saw_ranked);
  // Shutdown cut the stream before request 5; the bye record is last.
  EXPECT_NE(lines.back().find("\"type\":\"bye\""), std::string::npos);
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("\"id\":5"), std::string::npos);
  }
}

TEST(SvcServe, WarmRestartIsByteIdenticalAndAppendsNothing) {
  TempFile log("svc_warm_restart.log");
  const std::string requests = small_request(1) + "\n" +
                               small_request(2, 27) + "\n" +
                               small_request(3) + "\n";
  std::ostringstream cold;
  {
    svc::ServiceOptions options;
    options.store_path = log.path;
    svc::Service service(options);
    std::istringstream in(requests);
    svc::serve_pipe(service, in, cold);
    EXPECT_GT(service.store().stats().appends, 0u);
  }
  std::ostringstream warm;
  {
    svc::ServiceOptions options;
    options.store_path = log.path;
    svc::Service service(options);
    std::istringstream in(requests);
    svc::serve_pipe(service, in, warm);
    EXPECT_EQ(service.store().stats().appends, 0u);
    EXPECT_EQ(service.store().stats().hits, 3u);
  }
  EXPECT_EQ(cold.str(), warm.str());
}

TEST(SvcServe, RestartMidStreamThenReplayMatchesTheUnbrokenRun) {
  TempFile log("svc_split_stream.log");
  const std::vector<std::string> reqs = {
      small_request(1), small_request(2, 27),
      small_request(3, 8, ",\"objective\":\"cost\""), small_request(4)};
  const auto run = [&](const std::string& store_path, std::size_t begin,
                       std::size_t end) {
    std::string text;
    for (std::size_t i = begin; i < end; ++i) {
      text += reqs[i] + "\n";
    }
    svc::ServiceOptions options;
    options.store_path = store_path;
    svc::Service service(options);
    std::istringstream in(text);
    std::ostringstream out;
    svc::serve_pipe(service, in, out);
    // Strip the per-process bye record: we compare the answer streams.
    std::string joined;
    for (const auto& line : lines_of(out.str())) {
      if (line.find("\"type\":\"bye\"") == std::string::npos) {
        joined += line + "\n";
      }
    }
    return joined;
  };
  const std::string first_half = run(log.path, 0, 2);   // killed here
  const std::string second_half = run(log.path, 2, 4);  // warm restart
  TempFile fresh("svc_split_stream_fresh.log");
  const std::string unbroken = run(fresh.path, 0, 4);
  EXPECT_EQ(first_half + second_half, unbroken);
}

TEST(SvcServe, NewRequestAfterRestartReusesStoredExperiments) {
  TempFile log("svc_incremental.log");
  {
    svc::ServiceOptions options;
    options.store_path = log.path;
    svc::Service service(options);
    std::istringstream in(small_request(1) + "\n");
    std::ostringstream out;
    svc::serve_pipe(service, in, out);
  }
  // Same job, different objective: a request never seen before whose
  // experiments were all priced by the first run.
  svc::ServiceOptions options;
  options.store_path = log.path;
  svc::Service service(options);
  std::istringstream in(small_request(2, 8, ",\"objective\":\"cost\"") +
                        "\n");
  std::ostringstream out;
  svc::serve_pipe(service, in, out);
  EXPECT_GT(service.engine().stats().store_hits, 0u);
  EXPECT_NE(out.str().find("\"type\":\"decision\""), std::string::npos);
}

TEST(SvcServe, TokenBucketThrottlesAndRefills) {
  svc::ServiceOptions options;
  svc::Service probe(svc::ServiceOptions{});
  const double cost = probe.request_cost(
      svc::parse_request_line(small_request(1)));
  ASSERT_GT(cost, 0.0);
  // Capacity covers exactly one request; refill half a request per
  // observed request (throttled attempts included), so every second
  // request gets through.
  options.budget_capacity = cost;
  options.budget_refill = cost / 2;
  svc::Service service(options);
  std::istringstream in(small_request(1) + "\n" + small_request(2) + "\n" +
                        small_request(3) + "\n");
  std::ostringstream out;
  const auto stats = svc::serve_pipe(service, in, out);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.throttled, 1u);
  const auto lines = lines_of(out.str());
  EXPECT_NE(lines[0].find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"throttled\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"decision\""), std::string::npos);
}

TEST(SvcServe, UnpriceableRequestWithBudgetsAnswersErrorAndKeepsServing) {
  svc::ServiceOptions options;
  options.budget_capacity = 1000.0;
  options.budget_refill = 1000.0;
  svc::Service service(options);
  // iterations:0 parses fine but cannot be priced: with budgets on, the
  // admission check prices it. That must yield an error record for the
  // request's id, and the stream must keep flowing.
  std::istringstream in(
      "{\"id\":1,\"app\":\"rd\",\"ranks\":8,\"iterations\":0}\n" +
      small_request(2) + "\n");
  std::ostringstream out;
  const auto stats = svc::serve_pipe(service, in, out);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.served, 1u);
  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":2"), std::string::npos);
}

/// A serve_unix_socket daemon on its own thread, for the socket tests.
class SocketServer {
 public:
  explicit SocketServer(svc::Service& service)
      : path_("/tmp/svc_test_socket_" + std::to_string(::getpid()) +
              ".sock"),
        thread_([this, &service] {
          stats_ = svc::serve_unix_socket(service, path_);
        }) {}
  ~SocketServer() {
    if (thread_.joinable()) {  // a test that failed before its shutdown
      converse("{\"id\":0,\"type\":\"shutdown\"}\n");
      thread_.join();
    }
    ::unlink(path_.c_str());
  }

  /// Connects (waiting for the socket to appear), sends `payload`, closes
  /// the write side, and returns everything the daemon answers.
  std::string converse(const std::string& payload) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    int fd = -1;
    for (int attempt = 0; attempt < 500 && fd < 0; ++attempt) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        fd = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_GE(fd, 0) << "could not connect to " << path_;
    if (fd < 0) {
      return "";
    }
    EXPECT_EQ(::write(fd, payload.data(), payload.size()),
              static_cast<ssize_t>(payload.size()));
    ::shutdown(fd, SHUT_WR);
    std::string response;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  }

  /// Waits for the daemon to stop (a connection sent "shutdown").
  svc::ServeStats join() {
    thread_.join();
    return stats_;
  }

 private:
  std::string path_;
  svc::ServeStats stats_;
  std::thread thread_;
};

std::vector<std::string> without_bye(const std::string& text) {
  std::vector<std::string> lines;
  for (auto& line : lines_of(text)) {
    if (line.find("\"type\":\"bye\"") == std::string::npos) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

TEST(SvcServe, UnixSocketSpeaksTheSameProtocol) {
  svc::Service service(svc::ServiceOptions{});
  SocketServer server(service);
  const std::string response = server.converse(
      "{\"id\":0,\"type\":\"ping\"}\n" + small_request(1) + "\n" +
      "{\"id\":2,\"type\":\"shutdown\"}\n");
  const svc::ServeStats stats = server.join();
  EXPECT_NE(response.find("\"type\":\"pong\""), std::string::npos);
  EXPECT_NE(response.find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(response.find("\"type\":\"bye\""), std::string::npos);
  EXPECT_EQ(stats.served, 1u);
}

// Both transports run one request loop, so one stream gets the same
// answers and the same tallies over either. A request the broker cannot
// price (rd at the paper's p=1000) is an error carrying its own id.
TEST(SvcServe, PipeAndSocketAnswerOneStreamAlike) {
  svc::Service probe(svc::ServiceOptions{});
  const std::string unpriceable =
      R"({"id":3,"app":"rd","elements":8000000,"frontier":false})";
  svc::ServiceOptions options;
  // Room for requests 2 and 3 and nothing more: 4 is throttled.
  options.budget_capacity =
      probe.request_cost(svc::parse_request_line(small_request(2))) +
      probe.request_cost(svc::parse_request_line(unpriceable));
  const std::string stream = "{\"id\":0,\"type\":\"ping\"}\n" +
                             std::string("{\"id\":1,\"app\":\n") +
                             small_request(2) + "\n" + unpriceable + "\n" +
                             small_request(4) + "\n";

  svc::Service piped(options);
  std::istringstream in(stream);
  std::ostringstream out;
  const svc::ServeStats pipe_stats = svc::serve_pipe(piped, in, out);

  svc::Service socketed(options);
  SocketServer server(socketed);
  const std::string response =
      server.converse(stream + "{\"id\":5,\"type\":\"shutdown\"}\n");
  const svc::ServeStats socket_stats = server.join();

  const auto answers = without_bye(out.str());
  EXPECT_EQ(without_bye(response), answers);
  ASSERT_EQ(answers.size(), 5u);
  EXPECT_NE(answers[0].find("\"type\":\"pong\""), std::string::npos);
  EXPECT_NE(answers[1].find(R"("type":"error","id":null)"),
            std::string::npos);
  EXPECT_NE(answers[2].find(R"("type":"decision","id":2)"),
            std::string::npos);
  EXPECT_NE(answers[3].find(R"("type":"error","id":3)"), std::string::npos);
  EXPECT_NE(answers[4].find(R"("type":"throttled","id":4)"),
            std::string::npos);
  for (const svc::ServeStats& s : {pipe_stats, socket_stats}) {
    EXPECT_EQ(s.served, 1u);
    EXPECT_EQ(s.pings, 1u);
    EXPECT_EQ(s.errors, 2u);
    EXPECT_EQ(s.throttled, 1u);
  }
}

/// Virtual memory size of this process in kB, from /proc/self/status.
long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stol(line.substr(7));
    }
  }
  return -1;
}

// Each connection runs on a thread of its own. A finished connection's
// thread must be joined while the daemon runs: an unjoined thread keeps its
// stack (8 MB by default) mapped until shutdown.
TEST(SvcServe, SequentialConnectionsDoNotAccumulateThreadStacks) {
  svc::Service service(svc::ServiceOptions{});
  SocketServer server(service);
  const std::string ping = "{\"id\":0,\"type\":\"ping\"}\n";
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(server.converse(ping).find("pong"), std::string::npos);
  }
  const long before_kb = vm_size_kb();
  ASSERT_GT(before_kb, 0);
  constexpr int kConnections = 100;
  for (int i = 0; i < kConnections; ++i) {
    ASSERT_NE(server.converse(ping).find("pong"), std::string::npos);
  }
  const long growth_kb = vm_size_kb() - before_kb;
  server.converse("{\"id\":1,\"type\":\"shutdown\"}\n");
  EXPECT_EQ(server.join().pings, 10u + kConnections);
  // Unjoined, the stacks grew it by about 8.8 MB per connection.
  EXPECT_LT(growth_kb, kConnections * 1024L)
      << "VmSize grew " << growth_kb << " kB over " << kConnections
      << " sequential connections";
}

}  // namespace
