// Tests for the simulated message-passing runtime: point-to-point semantics,
// collectives, virtual clocks, statistics, and failure propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <thread>

#include "netsim/collectives.hpp"
#include "netsim/fabric.hpp"
#include "obs/trace.hpp"
#include "prop_util.hpp"
#include "resil/recovery.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace hetero::simmpi {
namespace {

netsim::Topology test_topology(int ranks, int ranks_per_node = 2) {
  return netsim::Topology::uniform(ranks, ranks_per_node,
                                   netsim::Fabric::gigabit_ethernet(),
                                   netsim::Fabric::shared_memory());
}

TEST(Runtime, RingPassesTokenAround) {
  Runtime rt(test_topology(4));
  std::atomic<int> final_token{0};
  rt.run([&](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    if (comm.rank() == 0) {
      comm.send(std::vector<std::int64_t>{1}, next, 0);
      const auto got = comm.recv<std::int64_t>(prev, 0);
      final_token.store(static_cast<int>(got[0]));
    } else {
      const auto got = comm.recv<std::int64_t>(prev, 0);
      comm.send(std::vector<std::int64_t>{got[0] + 1}, next, 0);
    }
  });
  EXPECT_EQ(final_token.load(), 4);
}

TEST(Runtime, MessagesMatchOnSourceAndTag) {
  Runtime rt(test_topology(2));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>{1.0}, 1, 10);
      comm.send(std::vector<double>{2.0}, 1, 20);
      comm.send(std::vector<double>{3.0}, 1, 10);
    } else {
      // Receive out of send order by tag.
      const auto b = comm.recv<double>(0, 20);
      const auto a1 = comm.recv<double>(0, 10);
      const auto a2 = comm.recv<double>(0, 10);
      EXPECT_DOUBLE_EQ(b[0], 2.0);
      // Non-overtaking within the same (source, tag).
      EXPECT_DOUBLE_EQ(a1[0], 1.0);
      EXPECT_DOUBLE_EQ(a2[0], 3.0);
    }
  });
}

TEST(Runtime, ReceiveClockRespectsTransferTime) {
  auto topo = test_topology(2, 1);  // ranks on different nodes
  const double wire = topo.message_time(0, 1, 8 * 1024);
  Runtime rt(std::move(topo));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload(1024, 1.0);  // 8 KiB
      comm.send(payload, 1, 0);
    } else {
      const auto got = comm.recv<double>(0, 0);
      EXPECT_EQ(got.size(), 1024u);
      // Receiver time must be at least the wire time of the payload.
      EXPECT_GE(comm.now(), wire * 0.99);
    }
  });
}

TEST(Runtime, ComputeAdvancesOnlyLocalClock) {
  Runtime rt(test_topology(2));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(5.0);
      EXPECT_NEAR(comm.now(), 5.0, 1e-12);
    } else {
      EXPECT_DOUBLE_EQ(comm.now(), 0.0);
    }
  });
  EXPECT_GE(rt.elapsed_sim_seconds(), 5.0);
}

TEST(Runtime, BarrierSynchronizesClocks) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    comm.compute(comm.rank() == 2 ? 7.0 : 0.5);
    comm.barrier();
    // Everyone leaves at (or after) the slowest rank's entry time.
    EXPECT_GE(comm.now(), 7.0);
  });
}

TEST(Runtime, AllreduceSumMinMax) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    const double r = comm.rank() + 1.0;  // 1..4
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::kSum), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, ReduceOp::kMax), 4.0);
    const std::int64_t i = comm.rank();
    EXPECT_EQ(comm.allreduce(i, ReduceOp::kSum), 6);
  });
}

TEST(Runtime, AllreduceVectorIsElementwise) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    const std::vector<double> in{1.0 * comm.rank(), 10.0};
    const auto out = comm.allreduce(std::span<const double>(in),
                                    ReduceOp::kSum);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 0.0 + 1.0 + 2.0);
    EXPECT_DOUBLE_EQ(out[1], 30.0);
  });
}

TEST(Runtime, AllgathervConcatenatesByRank) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    // Rank r contributes r+1 entries of value r.
    std::vector<std::int64_t> mine(static_cast<std::size_t>(comm.rank() + 1),
                                   comm.rank());
    const auto all = comm.allgatherv(mine);
    ASSERT_EQ(all.size(), 6u);  // 1+2+3
    EXPECT_EQ(all[0], 0);
    EXPECT_EQ(all[1], 1);
    EXPECT_EQ(all[2], 1);
    EXPECT_EQ(all[3], 2);
    EXPECT_EQ(all[5], 2);
  });
}

TEST(Runtime, AlltoallvRoutesBlocksCorrectly) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    // Block for rank d holds value 100*me + d, repeated (d+1) times.
    std::vector<std::vector<std::int64_t>> out(4);
    for (int d = 0; d < 4; ++d) {
      out[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(d + 1), 100 * comm.rank() + d);
    }
    const auto in = comm.alltoallv(out);
    ASSERT_EQ(in.size(), 4u);
    for (int s = 0; s < 4; ++s) {
      const auto& block = in[static_cast<std::size_t>(s)];
      ASSERT_EQ(block.size(), static_cast<std::size_t>(comm.rank() + 1));
      for (auto v : block) {
        EXPECT_EQ(v, 100 * s + comm.rank());
      }
    }
  });
}

TEST(Runtime, AlltoallvHandlesEmptyBlocks) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    std::vector<std::vector<double>> out(3);
    if (comm.rank() == 0) {
      out[2] = {3.14};
    }
    const auto in = comm.alltoallv(out);
    if (comm.rank() == 2) {
      ASSERT_EQ(in[0].size(), 1u);
      EXPECT_DOUBLE_EQ(in[0][0], 3.14);
    } else {
      for (const auto& b : in) {
        EXPECT_TRUE(b.empty());
      }
    }
  });
}

// alltoallv's contract at any rank count, with seeded random block sizes
// (some blocks empty, one round empty everywhere) and allreduce rounds in
// between, so the rendezvous is reused across collective kinds: every rank
// receives exactly the blocks addressed to it, and leaves at max(entry
// clocks) + the largest per-rank charge alltoall_time(topology,
// max(1, sum of its block bytes / p)). The charge is deterministic, so the
// clocks compare with ==.
TEST(Runtime, AlltoallvDeliversEveryBlockAndChargesTheLargestCost) {
  for (const int p : {1, 2, 3, 8, 27}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    Runtime rt(test_topology(p));
    rt.run([&](Comm& comm) {
      const int me = comm.rank();
      for (int round = 0; round < 6; ++round) {
        // What `src` addresses to `dst` this round; a receiver rebuilds it.
        const auto block = [round](int src, int dst) {
          std::vector<std::int64_t> b;
          if (round == 3) {
            return b;  // the all-empty round
          }
          test::PropRng rng(static_cast<std::uint64_t>(
              (round * 1000 + src) * 1000 + dst));
          const int n = std::max(0, rng.uniform_int(-3, 9));
          for (int i = 0; i < n; ++i) {
            b.push_back(static_cast<std::int64_t>(rng.next_u64()));
          }
          return b;
        };
        std::vector<std::vector<std::int64_t>> out(
            static_cast<std::size_t>(p));
        std::uint64_t bytes = 0;
        for (int d = 0; d < p; ++d) {
          out[static_cast<std::size_t>(d)] = block(me, d);
          bytes += out[static_cast<std::size_t>(d)].size() *
                   sizeof(std::int64_t);
        }
        test::PropRng skew(static_cast<std::uint64_t>(round * 1000 + me));
        comm.compute(skew.uniform(0.0, 1e-3));
        const double entry = comm.now();
        const auto in = comm.alltoallv(out);
        const double exit = comm.now();
        ASSERT_EQ(in.size(), static_cast<std::size_t>(p));
        for (int s = 0; s < p; ++s) {
          EXPECT_EQ(in[static_cast<std::size_t>(s)], block(s, me))
              << "round " << round << ", block " << s << " -> " << me;
        }
        const double cost = netsim::alltoall_time(
            comm.topology(), std::max<std::uint64_t>(
                                 1, bytes / static_cast<std::uint64_t>(p)));
        const auto entries = comm.allgatherv(std::vector<double>{entry});
        const auto costs = comm.allgatherv(std::vector<double>{cost});
        EXPECT_EQ(exit, *std::max_element(entries.begin(), entries.end()) +
                            *std::max_element(costs.begin(), costs.end()))
            << "round " << round << ", rank " << me;
        EXPECT_EQ(comm.allreduce(std::int64_t{me}, ReduceOp::kSum),
                  std::int64_t{p} * (p - 1) / 2);
      }
    });
    for (const int blocks : {p - 1, p + 1}) {
      EXPECT_THROW(rt.run([&](Comm& comm) {
                     comm.alltoallv(std::vector<std::vector<double>>(
                         static_cast<std::size_t>(blocks)));
                   }),
                   Error);
    }
  }
}

TEST(Runtime, CollectivesAreRepeatable) {
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const double s =
          comm.allreduce(static_cast<double>(comm.rank() + round),
                         ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(s, 6.0 + 4.0 * round);
    }
  });
}

TEST(Runtime, StatsCountTraffic) {
  Runtime rt(test_topology(2));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>(100, 1.0), 1, 0);
    } else {
      comm.recv<double>(0, 0);
    }
    comm.barrier();
  });
  EXPECT_EQ(rt.stats(0).messages_sent, 1u);
  EXPECT_EQ(rt.stats(0).bytes_sent, 800u);
  EXPECT_EQ(rt.stats(1).messages_received, 1u);
  EXPECT_EQ(rt.stats(1).bytes_received, 800u);
  EXPECT_EQ(rt.stats(0).collectives, 1u);
  EXPECT_GT(rt.stats(1).comm_seconds, 0.0);
}

TEST(Runtime, RankFailureAbortsTheJob) {
  Runtime rt(test_topology(3));
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 if (comm.rank() == 1) {
                   throw Error("rank 1 exploded");
                 }
                 // Other ranks block; the abort must wake them.
                 comm.recv<double>((comm.rank() + 1) % 3, 99);
               }),
               Error);
}

TEST(Runtime, RunIsReusable) {
  Runtime rt(test_topology(2));
  for (int round = 0; round < 3; ++round) {
    rt.run([&](Comm& comm) {
      EXPECT_DOUBLE_EQ(comm.now(), 0.0);  // clocks reset per run
      comm.barrier();
    });
  }
}

TEST(Runtime, ClockNeverRunsBackwards) {
  Runtime rt(test_topology(2, 1));
  rt.run([&](Comm& comm) {
    double last = comm.now();
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 0) {
        comm.send(std::vector<double>{1.0}, 1, i);
        comm.compute(1e-3);
      } else {
        comm.recv<double>(0, i);
      }
      EXPECT_GE(comm.now(), last);
      last = comm.now();
    }
  });
}

class CollectiveRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRanks, AllCollectivesAgreeAtAnyRankCount) {
  const int p = GetParam();
  Runtime rt(test_topology(p));
  rt.run([&](Comm& comm) {
    // allreduce of rank ids.
    const double sum = comm.allreduce(static_cast<double>(comm.rank()),
                                      ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, p * (p - 1) / 2.0);
    // allgatherv of one entry each.
    const std::vector<std::int64_t> mine{comm.rank()};
    const auto all = comm.allgatherv(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
    }
    // alltoallv of rank products.
    std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      out[static_cast<std::size_t>(d)] = {
          static_cast<std::int64_t>(comm.rank()) * p + d};
    }
    const auto in = comm.alltoallv(out);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(in[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(in[static_cast<std::size_t>(s)][0],
                static_cast<std::int64_t>(s) * p + comm.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveRanks,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(Runtime, TrafficMatrixRecordsPointToPointBytes) {
  Runtime rt(test_topology(3));
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>(10, 1.0), 1, 0);   // 80 B to rank 1
      comm.send(std::vector<double>(5, 1.0), 2, 0);    // 40 B to rank 2
    } else {
      comm.recv<double>(0, 0);
    }
  });
  const auto& row0 = rt.stats(0).bytes_by_dest;
  ASSERT_EQ(row0.size(), 3u);
  EXPECT_EQ(row0[0], 0u);
  EXPECT_EQ(row0[1], 80u);
  EXPECT_EQ(row0[2], 40u);
  EXPECT_EQ(rt.stats(1).bytes_by_dest[0], 0u);  // rank 1 sent nothing
}

/// Runs `body` on `ranks` ranks, expecting the runtime to diagnose a
/// deadlock; returns the error message. Exact detection needs no timeout,
/// so the run must fail within a second of host time.
std::string deadlock_message(int ranks,
                             const std::function<void(Comm&)>& body) {
  Runtime rt(test_topology(ranks));
  const auto start = std::chrono::steady_clock::now();
  std::string message;
  try {
    rt.run(body);
    ADD_FAILURE() << "deadlock should have been detected";
  } catch (const Error& e) {
    message = e.what();
  }
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(host_s, 1.0) << "deadlock diagnosed too slowly";
  EXPECT_NE(message.find("deadlock"), std::string::npos) << message;
  // The runtime stays usable after the abort.
  rt.run([&](Comm& comm) { comm.barrier(); });
  return message;
}

TEST(Runtime, DeadlockedRecvFailsLoudly) {
  const std::string message = deadlock_message(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.recv<double>(0, 99);  // rank 0 never sends: deadlock
    }
  });
  EXPECT_NE(message.find("rank 1 waits in recv(source 0, tag 99)"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("rank 0 "), std::string::npos)
      << "rank 0 finished and is not blocked: " << message;
}

TEST(Runtime, DeadlockBetweenBarrierAndRecvNamesBoth) {
  const std::string message = deadlock_message(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();  // rank 1 never arrives
    } else {
      comm.recv<double>(0, 5);  // rank 0 never sends
    }
  });
  EXPECT_NE(message.find("rank 0 waits in barrier (1 of 2 ranks arrived)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("rank 1 waits in recv(source 0, tag 5)"),
            std::string::npos)
      << message;
}

TEST(Runtime, RingWhereEveryRankReceivesFirstDeadlocks) {
  const std::string message = deadlock_message(8, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.recv<double>(prev, 3);
    comm.send(std::vector<double>{1.0}, next, 3);
  });
  for (int r = 0; r < 8; ++r) {
    const std::string want = "rank " + std::to_string(r) +
                             " waits in recv(source " +
                             std::to_string((r + 7) % 8) + ", tag 3)";
    EXPECT_NE(message.find(want), std::string::npos) << message;
  }
}

TEST(Runtime, InjectedFaultAbortsBlockedPeersWithinTheGuardWindow) {
  // Fault-injection kills a rank by throwing resil::InjectedFault from its
  // body while the peers sit in blocking receives. The abort must wake
  // them: the run has to fail promptly and rethrow the injected fault, not
  // a deadlock error.
  Runtime rt(test_topology(4));
  const auto start = std::chrono::steady_clock::now();
  try {
    rt.run([&](Comm& comm) {
      if (comm.rank() == 2) {
        throw resil::InjectedFault(comm.rank(), 1, comm.now());
      }
      // Everyone else blocks on a message only the dead rank could send.
      comm.recv<double>(2, 7);
    });
    FAIL() << "the injected fault should have aborted the job";
  } catch (const resil::InjectedFault& fault) {
    EXPECT_EQ(fault.rank(), 2);
    EXPECT_EQ(fault.step(), 1);
  }
  const double host_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(host_s, 10.0) << "peers were not aborted promptly";

  // The runtime stays usable after the abort (the next attempt of a
  // recovery loop reuses fresh runtimes, but a reused one must not wedge).
  rt.run([&](Comm& comm) { comm.barrier(); });
}

TEST(Runtime, ManyRanksShareFewHostThreads) {
  // Far more ranks than CPUs: every rank still runs, in both directions of
  // a ring exchange, and the run uses at most one host thread per CPU.
  Runtime rt(test_topology(200, 8));
  std::atomic<int> sum{0};
  rt.run([&](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send(std::vector<std::int64_t>{comm.rank()}, next, 0);
    comm.send(std::vector<std::int64_t>{comm.rank()}, prev, 1);
    const auto a = comm.recv<std::int64_t>(prev, 0);
    const auto b = comm.recv<std::int64_t>(next, 1);
    sum.fetch_add(static_cast<int>(a[0] + b[0]));
    comm.barrier();
  });
  EXPECT_EQ(sum.load(), 2 * (199 * 200 / 2));
  const auto cpus = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_GE(rt.host_threads(), 1);
  EXPECT_LE(rt.host_threads(), static_cast<int>(cpus));
}

TEST(Runtime, EachRankTracesOnItsOwnRowAndTheCallerKeepsItsRow) {
  // obs binds the trace row per OS thread; fibers sharing a thread must
  // rebind it on every switch-in, and run() must give the caller its row
  // back.
  obs::TraceRecorder recorder(6, 64);
  obs::set_current_trace(&recorder);
  obs::bind_trace_rank(5);
  Runtime rt(test_topology(4));
  rt.run([&](Comm& comm) {
    for (int round = 0; round < 3; ++round) {
      obs::trace_instant("mark", "test", static_cast<double>(round), "rank",
                         comm.rank());
      comm.barrier();  // every rank switches out between its marks
    }
  });
  obs::trace_instant("after_run", "test", 9.0);
  obs::set_current_trace(nullptr);
  EXPECT_EQ(obs::bound_trace_rank(), 5);
  obs::bind_trace_rank(0);
  for (int r = 0; r < 4; ++r) {
    int marks = 0;
    for (const auto& event : recorder.events(r)) {
      if (std::string(event.name) == "mark") {
        EXPECT_EQ(event.arg, static_cast<double>(r))
            << "rank " << event.arg << " on row " << r;
        ++marks;
      }
    }
    EXPECT_EQ(marks, 3) << "row " << r;
  }
  const auto host_row = recorder.events(5);
  ASSERT_EQ(host_row.size(), 1u);
  EXPECT_STREQ(host_row[0].name, "after_run");
}

TEST(Runtime, DegradedWindowsSlowCommunicationDeterministically) {
  auto measure = [&](double active_fraction) {
    Runtime rt(test_topology(4));
    netsim::DegradationSchedule schedule;
    schedule.active_fraction = active_fraction;
    schedule.factor = 5.0;
    schedule.window_s = 1.0;
    schedule.seed = 3;
    rt.set_degradation(schedule);
    rt.run([&](Comm& comm) {
      std::vector<double> payload(1 << 14, 1.0);
      for (int round = 0; round < 20; ++round) {
        comm.allreduce(static_cast<double>(round), ReduceOp::kSum);
        const int peer = comm.rank() ^ 1;
        comm.send(payload, peer, 5);
        comm.recv<double>(peer, 5);
      }
    });
    return rt.elapsed_sim_seconds();
  };
  const double healthy = measure(0.0);
  const double degraded = measure(1.0);
  EXPECT_GT(degraded, healthy);  // every window scaled by 5x
  // Pure-hash windows: the degraded run replays to the exact same clock.
  EXPECT_DOUBLE_EQ(degraded, measure(1.0));
}

TEST(SimClock, AdvanceToIsMonotone) {
  SimClock clock;
  clock.advance(5.0);
  clock.advance_to(3.0);  // must not go back
  EXPECT_DOUBLE_EQ(clock.time(), 5.0);
  clock.advance_to(9.0);
  EXPECT_DOUBLE_EQ(clock.time(), 9.0);
  EXPECT_THROW(clock.advance(-1.0), Error);
}

}  // namespace
}  // namespace hetero::simmpi
