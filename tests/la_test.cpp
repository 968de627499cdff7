// Tests for distributed linear algebra: gid directory, index maps, halo
// exchange, vectors, CSR matrices, and the refillable system builder.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>

#include "la/csr_matrix.hpp"
#include "la/dist_matrix.hpp"
#include "la/dist_vector.hpp"
#include "la/halo.hpp"
#include "fem/fe_space.hpp"
#include "la/index_map.hpp"
#include "la/kernels.hpp"
#include "la/system_builder.hpp"
#include "mesh/box_mesh.hpp"
#include "netsim/fabric.hpp"
#include "simmpi/runtime.hpp"

namespace hetero::la {
namespace {

simmpi::Runtime make_runtime(int ranks) {
  return simmpi::Runtime(netsim::Topology::uniform(
      ranks, 2, netsim::Fabric::gigabit_ethernet(),
      netsim::Fabric::shared_memory()));
}

/// 1-D overlapping decomposition: rank r touches gids [10r, 10r+10], so
/// adjacent ranks share one gid (10r) — a minimal partition interface.
std::vector<GlobalId> touched_1d(int rank) {
  std::vector<GlobalId> t;
  for (GlobalId g = 10 * rank; g <= 10 * rank + 10; ++g) {
    t.push_back(g);
  }
  return t;
}

/// Bit patterns of `values`, so comparisons tell -0 from 0 and last bits.
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

/// Order-sensitive addends: 1e16 + 1 rounds back to 1e16.
constexpr double kOrderSensitive[] = {1e16, 1.0, -1e16, 0.5, -3.0, 2.0, 7.0};

TEST(GidDirectory, SharedGidsGoToLowestRank) {
  auto rt = make_runtime(3);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto owners = dir.lookup(comm, touched);
    for (std::size_t i = 0; i < touched.size(); ++i) {
      const GlobalId g = touched[i];
      // gid 10r (r>0) is shared between ranks r-1 and r: min rank wins.
      // The top gid (30) is touched only by the last rank, and the formula
      // g/10 - 1 = 2 happens to be that rank as well.
      if (g % 10 == 0 && g > 0) {
        EXPECT_EQ(owners[i], static_cast<int>(g / 10) - 1) << "gid " << g;
      } else {
        EXPECT_EQ(owners[i], static_cast<int>(g / 10)) << "gid " << g;
      }
    }
  });
}

TEST(GidDirectory, LookupOfUnregisteredGidThrows) {
  auto rt = make_runtime(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 const auto dir =
                     GidDirectory::build(comm, touched_1d(comm.rank()));
                 const std::vector<GlobalId> bogus{999999};
                 dir.lookup(comm, bogus);
               }),
               Error);
}

TEST(IndexMap, OwnedSetsPartitionTheGlobalIds) {
  auto rt = make_runtime(4);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    // 4 ranks x 11 touched with 3 shared interfaces: 41 global ids.
    EXPECT_EQ(map.global_count(), 41);
    EXPECT_EQ(map.local_count(), 11);
    EXPECT_EQ(map.owned_count() + map.ghost_count(), 11);
    // Every local gid resolves back to its local index.
    for (int l = 0; l < map.local_count(); ++l) {
      EXPECT_EQ(map.local(map.gid(l)), l);
    }
    EXPECT_EQ(map.local(424242), kInvalidLocal);
    // Ghosts know a valid foreign owner.
    for (int l = map.owned_count(); l < map.local_count(); ++l) {
      EXPECT_NE(map.ghost_owner(l), comm.rank());
      EXPECT_GE(map.ghost_owner(l), 0);
      EXPECT_LT(map.ghost_owner(l), comm.size());
    }
  });
}

TEST(IndexMap, ExtraGhostsAreIncluded) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    // Rank 0 additionally needs gid 15 (owned by rank 1).
    std::vector<GlobalId> extra;
    if (comm.rank() == 0) {
      extra.push_back(15);
    }
    const auto map = IndexMap::build(comm, dir, touched, extra);
    if (comm.rank() == 0) {
      const int l = map.local(15);
      ASSERT_NE(l, kInvalidLocal);
      EXPECT_FALSE(map.is_owned_local(l));
      EXPECT_EQ(map.ghost_owner(l), 1);
    }
  });
}

TEST(HaloExchange, ImportMovesOwnerValuesToGhosts) {
  auto rt = make_runtime(3);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    HaloExchange halo(comm, map);
    DistVector v(map);
    // Owner writes gid as the value; ghosts start poisoned.
    for (int l = 0; l < map.owned_count(); ++l) {
      v[l] = static_cast<double>(map.gid(l));
    }
    for (int l = map.owned_count(); l < map.local_count(); ++l) {
      v[l] = -1.0;
    }
    v.update_ghosts(comm, halo);
    for (int l = 0; l < map.local_count(); ++l) {
      EXPECT_DOUBLE_EQ(v[l], static_cast<double>(map.gid(l)));
    }
  });
}

TEST(HaloExchange, ExportAddAccumulatesIntoOwners) {
  auto rt = make_runtime(3);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    HaloExchange halo(comm, map);
    DistVector v(map);
    // Everybody contributes 1 at every local slot; after export-add each
    // owned slot holds the number of ranks touching that gid.
    v.set_all(1.0);
    halo.export_add(comm, v.values());
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      const bool shared = (g % 10 == 0) && g > 0 && g < 30;
      EXPECT_DOUBLE_EQ(v[l], shared ? 2.0 : 1.0) << "gid " << g;
    }
    // Ghost slots were zeroed by the export.
    for (int l = map.owned_count(); l < map.local_count(); ++l) {
      EXPECT_DOUBLE_EQ(v[l], 0.0);
    }
  });
}

TEST(DistVector, DotAndNormsMatchSerial) {
  auto rt = make_runtime(4);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    DistVector x(map);
    DistVector y(map);
    // x(g) = g, y(g) = 1 over all 41 global ids.
    for (int l = 0; l < map.owned_count(); ++l) {
      x[l] = static_cast<double>(map.gid(l));
      y[l] = 1.0;
    }
    double expect_dot = 0.0;
    double expect_norm2 = 0.0;
    for (GlobalId g = 0; g <= 40; ++g) {
      expect_dot += static_cast<double>(g);
      expect_norm2 += static_cast<double>(g) * static_cast<double>(g);
    }
    EXPECT_DOUBLE_EQ(x.dot(comm, y), expect_dot);
    EXPECT_NEAR(x.norm2(comm), std::sqrt(expect_norm2), 1e-10);
    EXPECT_DOUBLE_EQ(x.norm_inf(comm), 40.0);
  });
}

TEST(DistVector, AxpyOperations) {
  auto rt = make_runtime(2);
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    DistVector x(map);
    DistVector y(map);
    x.set_all(2.0);
    y.set_all(3.0);
    y.axpy(10.0, x);  // y = 23
    EXPECT_DOUBLE_EQ(y[0], 23.0);
    y.axpby(1.0, x, -1.0);  // y = 2 - 23 = -21
    EXPECT_DOUBLE_EQ(y[0], -21.0);
    y.scale(-1.0);
    EXPECT_DOUBLE_EQ(y[0], 21.0);
  });
}

TEST(CsrMatrix, FromTripletsMergesDuplicates) {
  const std::vector<Triplet> t{
      {0, 0, 1.0}, {0, 1, 2.0}, {0, 0, 3.0}, {1, 1, 5.0},
  };
  const auto m = CsrMatrix::from_triplets(2, 2, t);
  EXPECT_EQ(m.nonzeros(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_EQ(m.slot(1, 0), -1);
}

// 25 duplicates per slot, enough for a sort to partition them: each slot
// must be the plain left-to-right sum of its duplicates.
TEST(CsrMatrix, FromTripletsSumsDuplicatesInInputOrder) {
  std::vector<Triplet> t;
  std::vector<double> expect(4, 0.0);
  for (int i = 0; i < 100; ++i) {
    const int row = (i / 3) % 2;
    const int col = i % 2;
    const double v = kOrderSensitive[i % 7];
    t.push_back({row, col, v});
    expect[static_cast<std::size_t>(2 * row + col)] += v;
  }
  const auto m = CsrMatrix::from_triplets(2, 2, t);
  ASSERT_EQ(m.nonzeros(), 4);
  EXPECT_EQ(bits(m.values()), bits(expect));
}

TEST(CsrMatrix, MultiplyKnownValues) {
  const std::vector<Triplet> t{
      {0, 0, 2.0}, {0, 2, 1.0}, {1, 1, -1.0}, {2, 0, 3.0}, {2, 2, 4.0},
  };
  const auto m = CsrMatrix::from_triplets(3, 3, t);
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(3, 0.0);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  EXPECT_DOUBLE_EQ(y[2], 15.0);
  m.multiply_add(x, y);  // doubles
  EXPECT_DOUBLE_EQ(y[2], 30.0);
  const auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[1], -1.0);
}

TEST(CsrMatrix, SymmetryErrorDetectsAsymmetry) {
  const std::vector<Triplet> sym{
      {0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 2.0},
  };
  EXPECT_DOUBLE_EQ(CsrMatrix::from_triplets(2, 2, sym).symmetry_error(),
                   0.0);
  const std::vector<Triplet> asym{
      {0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -0.25}, {1, 1, 2.0},
  };
  EXPECT_DOUBLE_EQ(CsrMatrix::from_triplets(2, 2, asym).symmetry_error(),
                   0.75);
  // Entries only on one side count fully.
  const std::vector<Triplet> oneside{{0, 1, 3.0}};
  EXPECT_DOUBLE_EQ(
      CsrMatrix::from_triplets(2, 2, oneside).symmetry_error(), 3.0);
}

TEST(CsrMatrix, FrobeniusNorm) {
  const std::vector<Triplet> t{{0, 0, 3.0}, {1, 1, 4.0}};
  EXPECT_DOUBLE_EQ(CsrMatrix::from_triplets(2, 2, t).frobenius_norm(), 5.0);
}

class HaloRoundTripRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRoundTripRanks, ImportThenExportConservesTotals) {
  // Property: setting owned values, importing ghosts, then export-adding
  // multiplies each shared dof's owned value by (1 + #ghost copies); with
  // values = 1 the global sum becomes sum over ranks of local_count.
  auto rt = make_runtime(GetParam());
  rt.run([&](simmpi::Comm& comm) {
    const auto touched = touched_1d(comm.rank());
    const auto dir = GidDirectory::build(comm, touched);
    const auto map = IndexMap::build(comm, dir, touched);
    HaloExchange halo(comm, map);
    DistVector v(map);
    for (int l = 0; l < map.owned_count(); ++l) {
      v[l] = 1.0;
    }
    v.update_ghosts(comm, halo);
    halo.export_add(comm, v.values());
    double local = 0.0;
    for (int l = 0; l < map.owned_count(); ++l) {
      local += v[l];
    }
    const double global = comm.allreduce(local, simmpi::ReduceOp::kSum);
    const auto local_counts = comm.allreduce(
        static_cast<std::int64_t>(map.local_count()), simmpi::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(global, static_cast<double>(local_counts));
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HaloRoundTripRanks,
                         ::testing::Values(1, 2, 4, 6));

TEST(CsrMatrix, RejectsOutOfRangeTriplets) {
  const std::vector<Triplet> t{{0, 5, 1.0}};
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, t), Error);
}

/// Assembles a global 1-D Laplacian over gids 0..n-1 through the system
/// builder, each rank contributing its "elements" (pairs of adjacent gids)
/// like a FEM code, then compares matvec results against the serial stencil.
void check_distributed_laplacian(int ranks) {
  auto rt = make_runtime(ranks);
  const int n_elems = 12;  // elements (i, i+1), i = 0..11; gids 0..12
  rt.run([&](simmpi::Comm& comm) {
    // Block distribution of elements.
    const int per = (n_elems + comm.size() - 1) / comm.size();
    const int e0 = comm.rank() * per;
    const int e1 = std::min(n_elems, e0 + per);
    std::vector<GlobalId> touched;
    for (int e = e0; e < e1; ++e) {
      touched.push_back(e);
      touched.push_back(e + 1);
    }
    DistSystemBuilder builder(comm, touched);
    auto assemble = [&](double scale) {
      builder.begin_assembly();
      for (int e = e0; e < e1; ++e) {
        // Element stiffness [1 -1; -1 1], load [0.5, 0.5].
        builder.add_matrix(e, e, scale);
        builder.add_matrix(e, e + 1, -scale);
        builder.add_matrix(e + 1, e, -scale);
        builder.add_matrix(e + 1, e + 1, scale);
        builder.add_rhs(e, 0.5 * scale);
        builder.add_rhs(e + 1, 0.5 * scale);
      }
      builder.finalize(comm);
    };
    assemble(1.0);

    const IndexMap& map = builder.map();
    EXPECT_EQ(map.global_count(), n_elems + 1);

    // y = A x with x(g) = g^2: interior rows give -((g-1)^2 - 2g^2 + (g+1)^2)
    // = -2; boundary rows g^2 - (g±1)^2.
    DistVector x(map);
    DistVector y(map);
    for (int l = 0; l < map.local_count(); ++l) {
      x[l] = static_cast<double>(map.gid(l) * map.gid(l));
    }
    builder.matrix().multiply(comm, x, y);
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      double expect = -2.0;
      if (g == 0) {
        expect = 0.0 - 1.0;
      } else if (g == n_elems) {
        expect = static_cast<double>(g * g - (g - 1) * (g - 1));
      }
      EXPECT_NEAR(y[l], expect, 1e-12) << "row gid " << g;
    }
    // RHS: 0.5 per incident element.
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      const double expect = (g == 0 || g == n_elems) ? 0.5 : 1.0;
      EXPECT_NEAR(builder.rhs()[l], expect, 1e-12);
    }

    // Refill with doubled values; everything must exactly double.
    assemble(2.0);
    builder.matrix().multiply(comm, x, y);
    for (int l = 0; l < map.owned_count(); ++l) {
      const GlobalId g = map.gid(l);
      double expect = -4.0;
      if (g == 0) {
        expect = -2.0;
      } else if (g == n_elems) {
        expect = 2.0 * static_cast<double>(g * g - (g - 1) * (g - 1));
      }
      EXPECT_NEAR(y[l], expect, 1e-12);
    }
  });
}

TEST(DistSystemBuilder, LaplacianOn1Rank) { check_distributed_laplacian(1); }
TEST(DistSystemBuilder, LaplacianOn2Ranks) { check_distributed_laplacian(2); }
TEST(DistSystemBuilder, LaplacianOn4Ranks) { check_distributed_laplacian(4); }

TEST(DistSystemBuilder, DeterministicAcrossIdenticalRuns) {
  // The whole assembly pipeline (directory, routing, CSR layout) must be
  // bit-reproducible: two identical runs produce identical matvecs.
  auto run_once = [&]() {
    std::vector<double> result;
    auto rt = make_runtime(3);
    rt.run([&](simmpi::Comm& comm) {
      const int n = 12;
      const int per = (n + comm.size() - 1) / comm.size();
      const int e0 = comm.rank() * per;
      const int e1 = std::min(n, e0 + per);
      std::vector<GlobalId> touched;
      for (int e = e0; e < e1; ++e) {
        touched.push_back(e);
        touched.push_back(e + 1);
      }
      DistSystemBuilder builder(comm, touched);
      builder.begin_assembly();
      for (int e = e0; e < e1; ++e) {
        builder.add_matrix(e, e, 1.5);
        builder.add_matrix(e, e + 1, -0.5);
        builder.add_matrix(e + 1, e, -0.5);
        builder.add_matrix(e + 1, e + 1, 1.5);
      }
      builder.finalize(comm);
      DistVector x(builder.map());
      DistVector y(builder.map());
      for (int l = 0; l < x.local_count(); ++l) {
        x[l] = 0.1 * static_cast<double>(builder.map().gid(l));
      }
      builder.matrix().multiply(comm, x, y);
      const auto gathered = comm.allgatherv(
          std::vector<double>(y.owned().begin(), y.owned().end()));
      if (comm.rank() == 0) {
        result = gathered;
      }
    });
    return result;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

// Rank r touches gids 3r..3r+5 and rank r-1 owns the first three, so
// every slot of a shared row sums 20 order-sensitive duplicates, half kept
// by the owner and half routed to it. The first finalize must add them in
// the order every refill does, so its values equal a refill's bit for bit.
TEST(DistSystemBuilder, FirstFinalizeEqualsRefillBitwise) {
  const KernelMode saved = kernel_mode();
  for (const KernelMode mode : {KernelMode::kReference, KernelMode::kFast}) {
    set_kernel_mode(mode);
    auto rt = make_runtime(4);
    rt.run([&](simmpi::Comm& comm) {
      const int me = comm.rank();
      std::vector<GlobalId> touched;
      for (GlobalId g = 3 * me; g < 3 * me + 6; ++g) {
        touched.push_back(g);
      }
      DistSystemBuilder builder(comm, touched);
      auto assemble = [&] {
        builder.begin_assembly();
        int i = me;
        for (int rep = 0; rep < 10; ++rep) {
          for (const GlobalId row : touched) {
            for (const GlobalId col : touched) {
              builder.add_matrix(row, col, kOrderSensitive[i++ % 7]);
            }
            builder.add_rhs(row, kOrderSensitive[i++ % 7]);
          }
        }
        builder.finalize(comm);
      };
      assemble();
      const auto first_matrix = bits(builder.matrix().local().values());
      const auto first_rhs = bits(builder.rhs().owned());
      assemble();
      EXPECT_EQ(bits(builder.matrix().local().values()), first_matrix);
      EXPECT_EQ(bits(builder.rhs().owned()), first_rhs);
    });
  }
  set_kernel_mode(saved);
}

// The frozen plan of an RD P2 system on 8 ranks (6 cells per rank axis,
// as rd_p27 runs): the (row, col) sequence and 32-bit destinations and
// receive slots, at most 24 bytes per matrix contribution.
TEST(DistSystemBuilder, ReplayPlanStaysCompact) {
  auto rt = make_runtime(8);
  rt.run([&](simmpi::Comm& comm) {
    const mesh::BoxMeshSpec spec{12, 12, 12};
    const mesh::BlockDecomposition blocks(spec, comm.size());
    const auto submesh =
        mesh::build_box_submesh(spec, blocks.box(comm.rank()));
    const fem::FeSpace space(submesh, 2, spec.vertex_count());
    DistSystemBuilder builder(comm, space.dof_gids());
    EXPECT_EQ(builder.plan_bytes(), 0u);
    const auto n = static_cast<std::size_t>(space.dofs_per_tet());
    std::vector<GlobalId> gids(n);
    const std::vector<double> block(n * n, 1.0);
    const std::vector<double> load(n, 1.0);
    builder.begin_assembly();
    for (std::size_t t = 0; t < submesh.tet_count(); ++t) {
      space.tet_dof_gids(t, gids);
      builder.add_dense_block(gids, gids, block);
      builder.add_rhs_block(gids, load);
    }
    builder.finalize(comm);
    const auto contributions = submesh.tet_count() * n * n;
    EXPECT_GT(builder.plan_bytes(), 16 * contributions);
    EXPECT_LE(builder.plan_bytes(), 24 * contributions);
  });
}

TEST(DistSystemBuilder, RefillWithChangedStructureThrows) {
  auto rt = make_runtime(2);
  EXPECT_THROW(
      rt.run([&](simmpi::Comm& comm) {
        std::vector<GlobalId> touched{comm.rank(), comm.rank() + 1};
        DistSystemBuilder builder(comm, touched);
        builder.begin_assembly();
        builder.add_matrix(comm.rank(), comm.rank(), 1.0);
        builder.finalize(comm);
        builder.begin_assembly();
        builder.add_matrix(comm.rank(), comm.rank() + 1, 1.0);  // new slot
        builder.finalize(comm);
      }),
      Error);
}

TEST(DistSystemBuilder, ContributionToUndeclaredRowThrows) {
  auto rt = make_runtime(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 std::vector<GlobalId> touched{0, 1};
                 DistSystemBuilder builder(comm, touched);
                 builder.begin_assembly();
                 builder.add_matrix(50, 50, 1.0);
                 builder.finalize(comm);
               }),
               Error);
}

}  // namespace
}  // namespace hetero::la
