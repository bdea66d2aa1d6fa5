// Unit tests for the simulated distributed-memory machine: point-to-point
// semantics, collectives, virtual clock algebra, determinism, and failure
// propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/machine.hpp"

namespace chaos::sim {
namespace {

TEST(Machine, SingleRankRuns) {
  Machine m(1);
  int witness = 0;
  m.run([&](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    witness = 42;
  });
  EXPECT_EQ(witness, 42);
}

TEST(Machine, PointToPointDeliversData) {
  Machine m(2);
  m.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v{1, 2, 3, 4};
      c.send<int>(1, 7, v);
    } else {
      std::vector<int> got = c.recv<int>(0, 7);
      ASSERT_EQ(got.size(), 4u);
      EXPECT_EQ(got[0], 1);
      EXPECT_EQ(got[3], 4);
    }
  });
}

TEST(Machine, MessagesMatchedBySourceAndTag) {
  // Rank 2 receives tag 5 before tag 4 even though they were sent in the
  // opposite order; matching is by (src, tag), not arrival order.
  Machine m(3);
  m.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(2, 4, 40);
      c.send_value<int>(2, 5, 50);
    } else if (c.rank() == 1) {
      c.send_value<int>(2, 4, 41);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 5), 50);
      EXPECT_EQ(c.recv_value<int>(0, 4), 40);
      EXPECT_EQ(c.recv_value<int>(1, 4), 41);
    }
  });
}

TEST(Machine, SameSrcTagPreservesFifoOrder) {
  Machine m(2);
  m.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Machine, SelfSendWorks) {
  Machine m(2);
  m.run([](Comm& c) {
    c.send_value<int>(c.rank(), 1, c.rank() + 100);
    EXPECT_EQ(c.recv_value<int>(c.rank(), 1), c.rank() + 100);
  });
}

TEST(Machine, AllgatherCollectsRankContributions) {
  Machine m(5);
  m.run([](Comm& c) {
    std::vector<int> all = c.allgather(c.rank() * 2);
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(all[static_cast<size_t>(r)], 2 * r);
  });
}

TEST(Machine, AllgathervConcatenatesInRankOrder) {
  Machine m(4);
  m.run([](Comm& c) {
    // Rank r contributes r elements [r*10, r*10+r).
    std::vector<int> mine;
    for (int i = 0; i < c.rank(); ++i) mine.push_back(c.rank() * 10 + i);
    std::vector<std::size_t> counts;
    std::vector<int> all = c.allgatherv<int>(mine, &counts);
    ASSERT_EQ(all.size(), 0u + 1 + 2 + 3);
    ASSERT_EQ(counts.size(), 4u);
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(counts[static_cast<size_t>(r)], static_cast<size_t>(r));
    EXPECT_EQ(all[0], 10);  // rank 1's first element
    EXPECT_EQ(all[1], 20);
    EXPECT_EQ(all[2], 21);
    EXPECT_EQ(all[5], 32);
  });
}

TEST(Machine, AllreduceSumMaxMin) {
  Machine m(6);
  m.run([](Comm& c) {
    EXPECT_EQ(c.allreduce_sum(c.rank()), 0 + 1 + 2 + 3 + 4 + 5);
    EXPECT_EQ(c.allreduce_max(c.rank()), 5);
    EXPECT_EQ(c.allreduce_min(10 - c.rank()), 5);
  });
}

TEST(Machine, AllreduceIsDeterministicForDoubles) {
  // Reduction is by ascending rank regardless of thread scheduling.
  Machine m(8);
  double first = 0;
  for (int trial = 0; trial < 5; ++trial) {
    double result = 0;
    m.run([&](Comm& c) {
      double v = 1.0 / (1.0 + c.rank() * 0.1);
      double s = c.allreduce_sum(v);
      if (c.rank() == 0) result = s;
    });
    if (trial == 0)
      first = result;
    else
      EXPECT_EQ(result, first);
  }
}

TEST(Machine, BcastDistributesRootData) {
  Machine m(4);
  m.run([](Comm& c) {
    std::vector<double> mine;
    if (c.rank() == 2) mine = {3.5, 4.5};
    std::vector<double> got = c.bcast<double>(mine, 2);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], 3.5);
    EXPECT_EQ(got[1], 4.5);
  });
}

TEST(Machine, AlltoallExchangesPairwise) {
  Machine m(4);
  m.run([](Comm& c) {
    // value sent to rank r encodes (me, r)
    std::vector<int> sendbuf(4);
    for (int r = 0; r < 4; ++r)
      sendbuf[static_cast<size_t>(r)] = c.rank() * 100 + r;
    std::vector<int> got = c.alltoall<int>(sendbuf);
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(got[static_cast<size_t>(r)], r * 100 + c.rank());
  });
}

TEST(Machine, AlltoallvSkipsEmptyAndDeliversAll) {
  Machine m(4);
  m.run([](Comm& c) {
    // Each rank sends its rank repeated (dest+1) times, but only to higher
    // ranks; lower destinations get nothing.
    std::vector<std::vector<int>> out(4);
    for (int r = c.rank() + 1; r < 4; ++r)
      out[static_cast<size_t>(r)].assign(static_cast<size_t>(r + 1), c.rank());
    auto in = c.alltoallv(out);
    for (int r = 0; r < 4; ++r) {
      if (r < c.rank()) {
        ASSERT_EQ(in[static_cast<size_t>(r)].size(),
                  static_cast<size_t>(c.rank() + 1));
        EXPECT_EQ(in[static_cast<size_t>(r)][0], r);
      } else {
        EXPECT_TRUE(in[static_cast<size_t>(r)].empty());
      }
    }
  });
}

TEST(Machine, BarrierSynchronizesClocks) {
  Machine m(3);
  m.run([](Comm& c) {
    // Rank 2 does a lot of work; after the barrier everyone's clock is at
    // least rank 2's pre-barrier time.
    if (c.rank() == 2) c.charge_work(1e6);
    const double before = c.now();
    c.barrier();
    EXPECT_GE(c.now(), before);
    EXPECT_GE(c.now(), 1e6 * c.model().params().seconds_per_work_unit);
  });
}

TEST(Machine, ClockAdvancesWithChargedWork) {
  Machine m(1);
  m.run([](Comm& c) {
    const double t0 = c.now();
    c.charge_work(2.0e6);  // 2M units at 2M units/s = 1 virtual second
    EXPECT_NEAR(c.now() - t0, 1.0, 1e-12);
    EXPECT_NEAR(c.stats().compute_s, 1.0, 1e-12);
  });
}

TEST(Machine, MessageCostsFollowModel) {
  CostParams p;
  Machine m(2, p);
  m.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::uint8_t> kb(1024, 0);
      c.send<std::uint8_t>(1, 1, kb);
      EXPECT_NEAR(c.now(), p.send_overhead, 1e-12);
    } else {
      c.recv<std::uint8_t>(0, 1);
      // Receiver waits for arrival: send_overhead + latency + 1024 bytes,
      // plus its own recv overhead.
      const double expect =
          p.send_overhead + p.latency + 1024 * p.byte_time + p.recv_overhead;
      EXPECT_NEAR(c.now(), expect, 1e-12);
    }
  });
  EXPECT_EQ(m.stats(0).msgs_sent, 1u);
  EXPECT_EQ(m.stats(0).bytes_sent, 1024u);
}

TEST(Machine, ExecutionTimeIsMaxClock) {
  Machine m(4);
  m.run([](Comm& c) { c.charge_work(1e6 * (c.rank() + 1)); });
  const double spu = m.model().params().seconds_per_work_unit;
  EXPECT_NEAR(m.execution_time(), 4e6 * spu, 1e-9);
  EXPECT_NEAR(m.mean_compute_time(), (1 + 2 + 3 + 4) / 4.0 * 1e6 * spu, 1e-9);
  // LB = max*n/sum = 4*4/10
  EXPECT_NEAR(m.load_balance(), 1.6, 1e-9);
}

TEST(Machine, RankErrorPropagatesAndOthersUnblock) {
  Machine m(3);
  EXPECT_THROW(
      m.run([](Comm& c) {
        if (c.rank() == 1) throw Error("deliberate failure");
        // Other ranks block forever waiting on a message that never comes;
        // the abort must wake them.
        c.recv<int>((c.rank() + 1) % 3, 99);
      }),
      Error);
  // Machine remains usable after a failed run.
  m.run([](Comm& c) { c.barrier(); });
}

TEST(Machine, ReusableAcrossRuns) {
  Machine m(4);
  for (int iter = 0; iter < 3; ++iter) {
    m.run([&](Comm& c) {
      int sum = c.allreduce_sum(c.rank() + iter);
      EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4 * iter);
    });
    EXPECT_GT(m.execution_time(), 0.0);
  }
}

TEST(Machine, ManyRanksStress) {
  // 64 ranks exchanging in a ring; exercises thread startup and mailbox
  // matching at scale.
  const int kP = 64;
  Machine m(kP);
  m.run([](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    c.send_value<int>(next, 0, c.rank());
    EXPECT_EQ(c.recv_value<int>(prev, 0), prev);
    c.barrier();
  });
}

TEST(Machine, VirtualTimesAreDeterministic) {
  // The full per-rank virtual clock must not depend on thread scheduling.
  std::vector<double> first;
  for (int trial = 0; trial < 3; ++trial) {
    Machine m(8);
    m.run([](Comm& c) {
      std::vector<std::vector<int>> out(8);
      for (int r = 0; r < 8; ++r)
        if (r != c.rank())
          out[static_cast<size_t>(r)].assign(
              static_cast<size_t>(c.rank() + 1), r);
      c.alltoallv(out);
      c.charge_work(100.0 * c.rank());
      c.barrier();
    });
    std::vector<double> clocks;
    for (int r = 0; r < 8; ++r) clocks.push_back(m.stats(r).clock);
    if (trial == 0)
      first = clocks;
    else
      EXPECT_EQ(clocks, first);
  }
}

TEST(CostModel, HypercubeSteps) {
  EXPECT_EQ(hypercube_steps(1), 0);
  EXPECT_EQ(hypercube_steps(2), 1);
  EXPECT_EQ(hypercube_steps(3), 2);
  EXPECT_EQ(hypercube_steps(4), 2);
  EXPECT_EQ(hypercube_steps(128), 7);
}

TEST(CostModel, TransferTimeScalesWithBytes) {
  CostModel cm(CostParams{});
  EXPECT_GT(cm.transfer_time(1000), cm.transfer_time(10));
  EXPECT_NEAR(cm.transfer_time(0), cm.params().latency, 1e-15);
}

TEST(Machine, MovedPayloadReachesTheReceiverWithoutACopy) {
  // send(vector&&) moves the buffer into the message and recv<std::byte> /
  // try_recv<std::byte> move it out again: the receiver holds the sender's
  // allocation itself.
  Machine m(2);
  std::uintptr_t sent[2] = {0, 0}, received[2] = {0, 0};
  m.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < 2; ++k) {
        std::vector<std::byte> payload(4096, std::byte{0x5a});
        sent[k] = reinterpret_cast<std::uintptr_t>(payload.data());
        c.send(1, 9 + k, std::move(payload));
      }
    } else {
      std::vector<std::byte> got = c.recv<std::byte>(0, 9);
      received[0] = reinterpret_cast<std::uintptr_t>(got.data());
      EXPECT_EQ(got.size(), 4096u);
      EXPECT_EQ(got.back(), std::byte{0x5a});
      // Idle until the second message lands, so try_recv may take it.
      c.charge_comm_seconds(std::max(0.0, c.arrival_time(0, 10) - c.now()));
      ASSERT_TRUE(c.try_recv<std::byte>(0, 10, got));
      received[1] = reinterpret_cast<std::uintptr_t>(got.data());
      EXPECT_EQ(got.size(), 4096u);
    }
  });
  EXPECT_EQ(received[0], sent[0]);
  EXPECT_EQ(received[1], sent[1]);
}

TEST(Machine, MoveAndSpanSendsAreChargedIdentically) {
  // The span overload copies into a payload and forwards to the move
  // overload, so both leave the same accounting and the same modeled
  // arrival, to the bit.
  struct Result {
    RankStats sender, receiver;
    double arrival = 0.0;
  };
  const auto run = [](bool by_move) {
    Result out;
    Machine m(2);
    m.run([&](Comm& c) {
      if (c.rank() == 0) {
        c.charge_work(250.0);
        std::vector<std::byte> payload(1000, std::byte{7});
        if (by_move)
          c.send(1, 3, std::move(payload));
        else
          c.send<std::byte>(1, 3, payload);
      } else {
        out.arrival = c.arrival_time(0, 3);
        EXPECT_EQ(c.recv<std::byte>(0, 3).size(), 1000u);
      }
    });
    out.sender = m.stats(0);
    out.receiver = m.stats(1);
    return out;
  };
  const Result moved = run(true), copied = run(false);
  EXPECT_EQ(moved.arrival, copied.arrival);
  for (const auto& [a, b] : {std::pair{moved.sender, copied.sender},
                             std::pair{moved.receiver, copied.receiver}}) {
    EXPECT_EQ(a.clock, b.clock);
    EXPECT_EQ(a.comm_s, b.comm_s);
    EXPECT_EQ(a.msgs_sent, b.msgs_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  }
  EXPECT_EQ(moved.sender.msgs_sent, 1u);
  EXPECT_EQ(moved.sender.bytes_sent, 1000u);
}

class MachineParamTest : public ::testing::TestWithParam<int> {};

TEST_P(MachineParamTest, AllgathervRoundTripAtManySizes) {
  const int P = GetParam();
  Machine m(P);
  m.run([&](Comm& c) {
    std::vector<long> mine(static_cast<size_t>(c.rank() * 3 + 1),
                           static_cast<long>(c.rank()));
    std::vector<std::size_t> counts;
    auto all = c.allgatherv<long>(mine, &counts);
    std::size_t expected = 0;
    for (int r = 0; r < P; ++r) expected += static_cast<size_t>(r * 3 + 1);
    EXPECT_EQ(all.size(), expected);
    // Check the block belonging to the last rank.
    for (std::size_t i = all.size() - counts.back(); i < all.size(); ++i)
      EXPECT_EQ(all[i], P - 1);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, MachineParamTest,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 33));

}  // namespace
}  // namespace chaos::sim
