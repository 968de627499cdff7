// Tests for the H5Lite dataset container and distributed checkpointing.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "io/checkpoint.hpp"
#include "io/h5lite.hpp"
#include "la/system_builder.hpp"
#include "netsim/fabric.hpp"
#include "prop_util.hpp"
#include "simmpi/runtime.hpp"
#include "support/error.hpp"

namespace hetero::io {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) : path("/tmp/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

/// Replaces the file by a new one: ext4 flushes a file that was truncated
/// and rewritten in place when it is closed, which slows 20,000 rewrites
/// from about a second to several.
void write_bytes(const std::string& path, const std::string& bytes) {
  std::remove(path.c_str());
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(H5Lite, RoundTripsDoublesAndInts) {
  TempFile f("h5lite_roundtrip.h5l");
  {
    H5LiteWriter writer(f.path);
    writer.write_doubles("fields/u", {2, 3}, {1, 2, 3, 4, 5, 6});
    writer.write_ints("meta/steps", {4}, {10, 20, 30, 40});
    writer.close();
  }
  H5LiteReader reader(f.path);
  EXPECT_TRUE(reader.has("fields/u"));
  EXPECT_TRUE(reader.has("meta/steps"));
  EXPECT_FALSE(reader.has("missing"));
  const auto info = reader.info("fields/u");
  EXPECT_EQ(info.dtype, DType::kFloat64);
  ASSERT_EQ(info.shape.size(), 2u);
  EXPECT_EQ(info.shape[0], 2u);
  EXPECT_EQ(info.shape[1], 3u);
  EXPECT_EQ(info.element_count(), 6u);
  const auto u = reader.read_doubles("fields/u");
  ASSERT_EQ(u.size(), 6u);
  EXPECT_DOUBLE_EQ(u[4], 5.0);
  const auto steps = reader.read_ints("meta/steps");
  EXPECT_EQ(steps[3], 40);
  const auto names = reader.names();
  EXPECT_EQ(names.size(), 2u);
}

TEST(H5Lite, RejectsBadUsage) {
  TempFile f("h5lite_bad.h5l");
  H5LiteWriter writer(f.path);
  writer.write_doubles("a", {2}, {1.0, 2.0});
  // Duplicate name.
  EXPECT_THROW(writer.write_doubles("a", {1}, {3.0}), Error);
  // Shape/data mismatch.
  EXPECT_THROW(writer.write_doubles("b", {3}, {1.0}), Error);
  writer.close();
  // Writing after close.
  EXPECT_THROW(writer.write_doubles("c", {1}, {1.0}), Error);

  H5LiteReader reader(f.path);
  EXPECT_THROW(reader.read_doubles("zzz"), Error);
  // Type confusion.
  EXPECT_THROW(reader.read_ints("a"), Error);
}

TEST(H5Lite, DetectsTruncatedFiles) {
  TempFile f("h5lite_trunc.h5l");
  {
    std::ofstream os(f.path, std::ios::binary);
    os << "definitely not a dataset file";
  }
  EXPECT_THROW(H5LiteReader reader(f.path), Error);
  EXPECT_THROW(H5LiteReader reader("/tmp/does-not-exist.h5l"), Error);
}

TEST(H5Lite, NothingIsPublishedUntilClose) {
  TempFile f("h5lite_unpublished.h5l");
  TempFile tmp("h5lite_unpublished.h5l.tmp");
  H5LiteWriter writer(f.path);
  writer.write_doubles("v", {1}, {2.0});
  // Every byte so far lives in the side file; the target path must not
  // exist yet (a crash here leaves no half-written "checkpoint").
  EXPECT_THROW(H5LiteReader premature(f.path), Error);
  {
    std::ifstream side(tmp.path, std::ios::binary);
    EXPECT_TRUE(side.good());
  }
  writer.close();
  // close() renamed the side file into place.
  {
    std::ifstream side(tmp.path, std::ios::binary);
    EXPECT_FALSE(side.good());
  }
  H5LiteReader reader(f.path);
  EXPECT_DOUBLE_EQ(reader.read_doubles("v")[0], 2.0);
}

TEST(H5Lite, CrashMidRewriteLeavesThePreviousCheckpointLoadable) {
  TempFile f("h5lite_atomic.h5l");
  TempFile tmp("h5lite_atomic.h5l.tmp");
  {
    H5LiteWriter writer(f.path);
    writer.write_doubles("state", {2}, {1.0, 2.0});
    writer.close();
  }
  {
    // Rewrite the same path, but "crash" before close(): the new bytes
    // stay in the .tmp file and never reach the published checkpoint.
    H5LiteWriter writer(f.path);
    writer.write_doubles("state", {2}, {9.0, 9.0});
    std::ifstream side(tmp.path, std::ios::binary);
    EXPECT_TRUE(side.good());
    const auto old = H5LiteReader(f.path).read_doubles("state");
    EXPECT_DOUBLE_EQ(old[0], 1.0);
    EXPECT_DOUBLE_EQ(old[1], 2.0);
    writer.close();
  }
  // Simulate the on-disk debris of a kill mid-write — a truncated .tmp
  // next to the published file — and confirm loading is unaffected.
  {
    std::ofstream os(tmp.path, std::ios::binary | std::ios::trunc);
    const std::uint64_t magic = 0x48354C4954453031ULL;
    os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    os.write("torn", 4);
  }
  const auto values = H5LiteReader(f.path).read_doubles("state");
  EXPECT_DOUBLE_EQ(values[0], 9.0);
  EXPECT_DOUBLE_EQ(values[1], 9.0);
}

TEST(H5Lite, UnclosedWriterLeavesNoFooter) {
  TempFile f("h5lite_nofooter.h5l");
  {
    // Simulate a crash: write data, skip close() by writing raw bytes that
    // start with the magic but carry no footer.
    H5LiteWriter writer(f.path);
    writer.write_doubles("a", {1}, {1.0});
    // close() runs in the destructor, so reopen and truncate the footer.
  }
  std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
  const std::uint64_t magic = 0x48354C4954453031ULL;
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  os.write("payloadbytes", 12);
  os.close();
  EXPECT_THROW(H5LiteReader reader(f.path), Error);
}

// A shape whose element count wraps 64 bits used to pass the TOC bounds
// check: {2^32, 2^32} opened and read as 0 values, and {2^61+1, 1} made
// read_doubles throw std::length_error instead of hetero::Error.
TEST(H5Lite, RejectsShapesWhoseElementCountWraps) {
  TempFile f("h5lite_wrapped_shape.h5l");
  {
    H5LiteWriter writer(f.path);
    writer.write_doubles("u", {2, 1}, {1.0, 2.0});
    writer.close();
  }
  const std::string good = file_bytes(f.path);
  // magic, 2 doubles, then the TOC entry: u32 name length, "u", u32 dtype,
  // u32 ndims, and the two dims.
  const std::size_t dims = 8 + 16 + 4 + 1 + 4 + 4;
  ASSERT_EQ(test::with_word(test::with_word(good, dims, 2), dims + 8, 1),
            good);
  for (const auto& [d0, d1] :
       {std::pair{1ull << 32, 1ull << 32}, std::pair{(1ull << 61) + 1, 1ull}}) {
    SCOPED_TRACE(std::to_string(d0) + " x " + std::to_string(d1));
    write_bytes(f.path,
                test::with_word(test::with_word(good, dims, d0), dims + 8, d1));
    EXPECT_THROW(H5LiteReader reader(f.path), Error);
  }
  // The writer refuses such a shape as well.
  H5LiteWriter writer(f.path);
  EXPECT_THROW(writer.write_doubles("v", {(1ull << 61) + 1}, {1.0}), Error);
}

// 20,000 seeded mutants of a file with one float64 and one int64 dataset:
// each either raises hetero::Error, or opens and reads every listed dataset
// with exactly element_count() values. run_mutants counts a mutant as
// decoded when encode(decode(m)) == m, so the decode step answers the
// mutant's own bytes when every read had the right length.
TEST(H5Lite, SurvivesSeededMutants) {
  TempFile f("h5lite_mutants.h5l");
  {
    H5LiteWriter writer(f.path);
    writer.write_doubles("fields/u", {2, 3}, {1, 2, 3, 4, 5, 6});
    writer.write_ints("meta/steps", {4}, {10, 20, 30, 40});
    writer.close();
  }
  const auto tally = test::run_mutants(
      0x5eed0e3, file_bytes(f.path), 20000,
      [&](const std::string& bytes) {
        write_bytes(f.path, bytes);
        H5LiteReader reader(f.path);
        for (const auto& name : reader.names()) {
          const DatasetInfo info = reader.info(name);
          const std::size_t got = info.dtype == DType::kFloat64
                                      ? reader.read_doubles(name).size()
                                      : reader.read_ints(name).size();
          if (got != info.element_count()) {
            return "misread " + name;
          }
        }
        return bytes;
      },
      [](const std::string& decoded) { return decoded; });
  EXPECT_EQ(tally.misread, 0);
  EXPECT_EQ(tally.foreign, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.decoded, 0);
}

/// Builds a small distributed vector with gids 0..n-1 block-distributed.
la::DistVector make_vector(simmpi::Comm& comm,
                           std::unique_ptr<la::DistSystemBuilder>& builder,
                           int n) {
  const int per = (n + comm.size() - 1) / comm.size();
  const int r0 = comm.rank() * per;
  const int r1 = std::min(n, r0 + per);
  std::vector<la::GlobalId> touched;
  for (int g = r0; g < r1; ++g) {
    touched.push_back(g);
  }
  if (touched.empty()) {
    touched.push_back(0);  // idle rank still participates
  }
  builder = std::make_unique<la::DistSystemBuilder>(comm, touched);
  builder->begin_assembly();
  for (la::GlobalId g : touched) {
    builder->add_matrix(g, g, 1.0);
  }
  builder->finalize(comm);
  return la::DistVector(builder->map());
}

TEST(Checkpoint, SurvivesARankCountChange) {
  const std::string path = "/tmp/heterolab_ckpt_test.h5l";
  const int n = 25;
  // Save on 2 ranks.
  {
    simmpi::Runtime rt(netsim::Topology::uniform(
        2, 2, netsim::Fabric::gigabit_ethernet(),
        netsim::Fabric::shared_memory()));
    rt.run([&](simmpi::Comm& comm) {
      std::unique_ptr<la::DistSystemBuilder> builder;
      auto v = make_vector(comm, builder, n);
      for (int l = 0; l < v.map().owned_count(); ++l) {
        v[l] = 100.0 + static_cast<double>(v.map().gid(l));
      }
      save_checkpoint(comm, v, "state", path);
    });
  }
  // Restart on 3 ranks — spot instances disappeared, the assembly changed.
  {
    simmpi::Runtime rt(netsim::Topology::uniform(
        3, 2, netsim::Fabric::gigabit_ethernet(),
        netsim::Fabric::shared_memory()));
    rt.run([&](simmpi::Comm& comm) {
      std::unique_ptr<la::DistSystemBuilder> builder;
      auto v = make_vector(comm, builder, n);
      load_checkpoint(comm, v, "state", path);
      for (int l = 0; l < v.map().owned_count(); ++l) {
        EXPECT_DOUBLE_EQ(v[l], 100.0 + static_cast<double>(v.map().gid(l)));
      }
    });
  }
  std::remove(path.c_str());
}

TEST(SolverCheckpoint, RoundTripsAcrossARankCountChange) {
  const std::string path = "/tmp/heterolab_solver_ckpt_test.h5l";
  const int n = 25;
  // Save on 2 ranks mid-run: two state vectors, the clock, the step count.
  {
    simmpi::Runtime rt(netsim::Topology::uniform(
        2, 2, netsim::Fabric::gigabit_ethernet(),
        netsim::Fabric::shared_memory()));
    rt.run([&](simmpi::Comm& comm) {
      std::unique_ptr<la::DistSystemBuilder> builder;
      auto now = make_vector(comm, builder, n);
      la::DistVector prev(now.map());
      for (int l = 0; l < now.map().owned_count(); ++l) {
        now[l] = 10.0 + static_cast<double>(now.map().gid(l));
        prev[l] = -10.0 - static_cast<double>(now.map().gid(l));
      }
      save_solver_checkpoint(comm, now, prev, 3.5, 7, path);
    });
  }
  // Restart on 3 ranks: the gid-keyed format redistributes both vectors.
  {
    simmpi::Runtime rt(netsim::Topology::uniform(
        3, 2, netsim::Fabric::gigabit_ethernet(),
        netsim::Fabric::shared_memory()));
    rt.run([&](simmpi::Comm& comm) {
      std::unique_ptr<la::DistSystemBuilder> builder;
      auto now = make_vector(comm, builder, n);
      la::DistVector prev(now.map());
      const SolverCheckpointMeta meta =
          load_solver_checkpoint(comm, now, prev, path);
      EXPECT_DOUBLE_EQ(meta.time, 3.5);
      EXPECT_EQ(meta.steps_done, 7);
      for (int l = 0; l < now.map().owned_count(); ++l) {
        const auto g = static_cast<double>(now.map().gid(l));
        EXPECT_DOUBLE_EQ(now[l], 10.0 + g);
        EXPECT_DOUBLE_EQ(prev[l], -10.0 - g);
      }
    });
  }
  std::remove(path.c_str());
}

TEST(SolverCheckpoint, MissingFileIsAClearError) {
  const std::string path = "/tmp/heterolab_ckpt_does_not_exist.h5l";
  std::remove(path.c_str());
  simmpi::Runtime rt(netsim::Topology::uniform(
      1, 1, netsim::Fabric::gigabit_ethernet(),
      netsim::Fabric::shared_memory()));
  try {
    rt.run([&](simmpi::Comm& comm) {
      std::unique_ptr<la::DistSystemBuilder> builder;
      auto now = make_vector(comm, builder, 5);
      la::DistVector prev(now.map());
      (void)load_solver_checkpoint(comm, now, prev, path);
    });
    FAIL() << "expected an Error for a missing checkpoint file";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("cannot restore"), std::string::npos) << what;
  }
}

TEST(SolverCheckpoint, TruncatedFileIsAClearError) {
  const std::string path = "/tmp/heterolab_ckpt_truncated.h5l";
  {
    simmpi::Runtime rt(netsim::Topology::uniform(
        1, 1, netsim::Fabric::gigabit_ethernet(),
        netsim::Fabric::shared_memory()));
    rt.run([&](simmpi::Comm& comm) {
      std::unique_ptr<la::DistSystemBuilder> builder;
      auto now = make_vector(comm, builder, 5);
      la::DistVector prev(now.map());
      for (int l = 0; l < now.map().owned_count(); ++l) {
        now[l] = 1.0;
        prev[l] = 2.0;
      }
      save_solver_checkpoint(comm, now, prev, 1.0, 2, path);
    });
  }
  {
    // A crash mid-write leaves a short file: cut it to 6 bytes.
    std::ofstream cut(path, std::ios::binary | std::ios::trunc);
    cut << "stub!\n";
  }
  simmpi::Runtime rt(netsim::Topology::uniform(
      1, 1, netsim::Fabric::gigabit_ethernet(),
      netsim::Fabric::shared_memory()));
  try {
    rt.run([&](simmpi::Comm& comm) {
      std::unique_ptr<la::DistSystemBuilder> builder;
      auto now = make_vector(comm, builder, 5);
      la::DistVector prev(now.map());
      (void)load_solver_checkpoint(comm, now, prev, path);
    });
    FAIL() << "expected an Error for a truncated checkpoint file";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingGidIsAnError) {
  const std::string path = "/tmp/heterolab_ckpt_missing.h5l";
  simmpi::Runtime rt(netsim::Topology::uniform(
      1, 1, netsim::Fabric::gigabit_ethernet(),
      netsim::Fabric::shared_memory()));
  EXPECT_THROW(
      rt.run([&](simmpi::Comm& comm) {
        std::unique_ptr<la::DistSystemBuilder> builder;
        auto small = make_vector(comm, builder, 5);
        save_checkpoint(comm, small, "state", path);
        std::unique_ptr<la::DistSystemBuilder> builder2;
        auto big = make_vector(comm, builder2, 10);
        load_checkpoint(comm, big, "state", path);
      }),
      Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetero::io
