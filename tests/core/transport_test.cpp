// Transport edge cases and comm::Engine semantics at the core layer:
// empty schedules, self-block-only schedules, per-peer coalescing of
// independent posted schedules, tag-disjoint overlapping batches waited
// out of order, the non-blocking completion probe, and engine-posted
// light-weight migration.
#include <gtest/gtest.h>

#include "comm/engine.hpp"
#include "compile/schedule_plan.hpp"
#include "core/lightweight.hpp"

namespace chaos::core {
namespace {

using comm::CommHandle;
using comm::Engine;
using compile::SchedulePlan;
using sim::Comm;
using sim::Machine;

// Two ranks, each with 4 owned slots and 2 ghost slots (extent 6).
// data[i] starts as rank*100 + i for owned slots, -1 for ghosts.
std::vector<double> initial_data(int rank) {
  std::vector<double> d(6, -1.0);
  for (int i = 0; i < 4; ++i) d[static_cast<std::size_t>(i)] = rank * 100 + i;
  return d;
}

/// A symmetric two-rank exchange schedule: ship my `send_idx` to the peer;
/// the peer's elements land at my `recv_idx`.
Schedule two_rank_exchange(int me, std::vector<GlobalIndex> send_idx,
                           std::vector<GlobalIndex> recv_idx) {
  const int peer = 1 - me;
  std::vector<ScheduleBlock> send, recv;
  if (!send_idx.empty()) send.push_back({peer, std::move(send_idx)});
  if (!recv_idx.empty()) recv.push_back({peer, std::move(recv_idx)});
  return Schedule(std::move(send), std::move(recv));
}

/// One blocking gather: post through a fresh Engine with `sched`'s plan
/// (lowered, or verbatim), then wait.
void gather_through(Comm& comm, const Schedule& sched,
                    std::vector<double>& data, bool verbatim = false) {
  const SchedulePlan plan = verbatim ? SchedulePlan::verbatim(sched)
                                     : SchedulePlan::compile(sched);
  Engine engine(comm);
  engine.wait(engine.post_gather<double>(sched, data, plan));
}

// ---- edge cases ------------------------------------------------------------

TEST(TransportEdge, EmptyScheduleIsANoOp) {
  Machine m(2);
  m.run([](Comm& comm) {
    std::vector<double> data = initial_data(comm.rank());
    const std::vector<double> before = data;
    const Schedule empty;

    const SchedulePlan plan = SchedulePlan::compile(empty);
    Engine engine(comm);
    engine.wait(engine.post_scatter_add<double>(empty, data, plan));
    const CommHandle h = engine.post_gather<double>(empty, data, plan);
    EXPECT_TRUE(engine.done(h));  // nothing to receive
    engine.wait(h);

    EXPECT_EQ(data, before);
    EXPECT_EQ(comm.stats().msgs_sent, 0u);
  });
}

TEST(TransportEdge, SelfBlockOnlyScheduleCopiesLocally) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    std::vector<ScheduleBlock> send{{me, {0, 1}}};
    std::vector<ScheduleBlock> recv{{me, {4, 5}}};
    const Schedule sched(std::move(send), std::move(recv));

    std::vector<double> data = initial_data(me);
    gather_through(comm, sched, data);

    EXPECT_EQ(data[4], data[0]);
    EXPECT_EQ(data[5], data[1]);
    EXPECT_EQ(comm.stats().msgs_sent, 0u);
  });
}

TEST(TransportEdge, GatherPlacesPeerElementsAtGhostSlots) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    const Schedule sched = two_rank_exchange(me, {0, 1}, {4, 5});
    std::vector<double> data = initial_data(me);
    gather_through(comm, sched, data);
    EXPECT_EQ(data[4], peer * 100 + 0);
    EXPECT_EQ(data[5], peer * 100 + 1);
  });
}

TEST(TransportEdge, MultipleBlocksPerPeerDeliverInBlockOrder) {
  // The Schedule constructor accepts several blocks for the same peer;
  // sender block i pairs with receiver block i, and the engine must
  // preserve that pairing within its coalesced message. Blocks have different sizes so any
  // mispairing trips the segment-size check instead of passing silently.
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    std::vector<ScheduleBlock> send{{peer, {0}}, {peer, {1, 2}}};
    std::vector<ScheduleBlock> recv{{peer, {4}}, {peer, {5, 3}}};
    const Schedule sched(std::move(send), std::move(recv));

    // The lowered plan fuses the same-peer blocks into one wire group;
    // the verbatim plan walks them block by block. Both must pair them.
    for (const bool verbatim : {false, true}) {
      std::vector<double> data = initial_data(me);
      gather_through(comm, sched, data, verbatim);

      EXPECT_EQ(data[4], peer * 100 + 0);
      EXPECT_EQ(data[5], peer * 100 + 1);
      EXPECT_EQ(data[3], peer * 100 + 2);
    }
    EXPECT_EQ(comm.stats().msgs_sent, 2u);  // one coalesced message per run
  });
}

// ---- coalescing ------------------------------------------------------------

TEST(CommEngine, CoalescesIndependentSchedulesIntoOneMessagePerPeer) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    // Two independent schedules with disjoint slots.
    const Schedule a = two_rank_exchange(me, {0}, {4});
    const Schedule b = two_rank_exchange(me, {1}, {5});
    std::vector<double> data = initial_data(me);

    const SchedulePlan pa = SchedulePlan::compile(a);
    const SchedulePlan pb = SchedulePlan::compile(b);
    Engine engine(comm);
    const CommHandle ha = engine.post_gather<double>(a, data, pa);
    const CommHandle hb = engine.post_gather<double>(b, data, pb);
    EXPECT_EQ(comm.stats().msgs_sent, 0u);  // staged, not sent
    engine.flush();
    EXPECT_EQ(comm.stats().msgs_sent, 1u);  // ONE message for both schedules
    engine.wait(ha);
    engine.wait(hb);

    EXPECT_EQ(data[4], peer * 100 + 0);
    EXPECT_EQ(data[5], peer * 100 + 1);
    EXPECT_EQ(comm.stats().coalesced_msgs_sent, 1u);
    EXPECT_EQ(comm.stats().coalesced_segments, 2u);
    EXPECT_EQ(comm.stats().coalesced_bytes_sent, 2 * sizeof(double));
  });
}

TEST(CommEngine, BlockingWrapperSendsOneMessagePerSchedule) {
  // What batching improves on: each blocking call (one post + one wait on
  // its own engine) is its own flush, so two schedules cost two messages
  // per peer.
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const Schedule a = two_rank_exchange(me, {0}, {4});
    const Schedule b = two_rank_exchange(me, {1}, {5});
    std::vector<double> data = initial_data(me);
    gather_through(comm, a, data);
    gather_through(comm, b, data);
    EXPECT_EQ(comm.stats().msgs_sent, 2u);
  });
}

// ---- overlap ---------------------------------------------------------------

TEST(CommEngine, OverlappingBatchesUseDisjointTagsAndWaitOutOfOrder) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    const Schedule a = two_rank_exchange(me, {0}, {4});
    const Schedule b = two_rank_exchange(me, {1}, {5});
    std::vector<double> data = initial_data(me);

    const SchedulePlan pa = SchedulePlan::compile(a);
    const SchedulePlan pb = SchedulePlan::compile(b);
    Engine engine(comm);
    const CommHandle ha = engine.post_gather<double>(a, data, pa);
    engine.flush();  // batch 0 in flight
    const CommHandle hb = engine.post_gather<double>(b, data, pb);
    engine.flush();  // batch 1 in flight alongside batch 0

    engine.wait(hb);  // out-of-order wait completes the earlier batch too
    EXPECT_TRUE(engine.done(ha));
    engine.wait(ha);

    EXPECT_EQ(data[4], peer * 100 + 0);
    EXPECT_EQ(data[5], peer * 100 + 1);
    EXPECT_TRUE(engine.idle());
  });
}

TEST(CommEngine, WaitFlushesTheOpenBatchImplicitly) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    const Schedule a = two_rank_exchange(me, {2}, {5});
    std::vector<double> data = initial_data(me);
    const SchedulePlan pa = SchedulePlan::compile(a);
    Engine engine(comm);
    const CommHandle h = engine.post_gather<double>(a, data, pa);
    engine.wait(h);  // no explicit flush
    EXPECT_EQ(data[5], peer * 100 + 2);
  });
}

TEST(CommEngine, TestProbeEventuallyCompletesWithoutBlocking) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    const Schedule a = two_rank_exchange(me, {3}, {4});
    std::vector<double> data = initial_data(me);
    const SchedulePlan pa = SchedulePlan::compile(a);
    Engine engine(comm);
    const CommHandle h = engine.post_gather<double>(a, data, pa);
    EXPECT_FALSE(engine.test(h));  // still in the open batch
    engine.flush();
    // The probe is gated on modeled arrival, so a polling loop must burn
    // virtual cycles to make progress (and may also have to wait, in real
    // time, for the peer thread to reach its flush).
    while (!engine.test(h)) comm.charge_work(1000.0);
    EXPECT_EQ(data[4], peer * 100 + 3);
  });
}

// ---- scatter through the engine -------------------------------------------

TEST(CommEngine, ScatterAddCombinesGhostContributions) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    // Forward shape: peer fetched my element 0 into its ghost slot 4.
    const Schedule sched = two_rank_exchange(me, {0}, {4});
    std::vector<double> data = initial_data(me);
    data[4] = 1000 + me;  // ghost contribution to send back

    const SchedulePlan plan = SchedulePlan::compile(sched);
    Engine engine(comm);
    engine.post_scatter_add<double>(sched, data, plan);
    engine.flush();
    engine.wait_all();

    // My owned element 0 combined the peer's ghost contribution.
    EXPECT_EQ(data[0], me * 100 + 0 + 1000 + (1 - me));
  });
}

TEST(CommEngine, ScatterReplacesAtOwner) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const Schedule sched = two_rank_exchange(me, {1}, {5});
    std::vector<double> data = initial_data(me);
    data[5] = 7000 + me;

    const SchedulePlan plan = SchedulePlan::compile(sched);
    Engine engine(comm);
    engine.wait(engine.post_scatter<double>(sched, data, plan));
    EXPECT_EQ(data[1], 7000 + (1 - me));
  });
}

// ---- light-weight migration ------------------------------------------------

TEST(CommEngine, PostedMigrateAppendsSelfThenArrivals) {
  Machine m(2);
  m.run([](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    // Each rank keeps item 0 and ships item 1 to the peer.
    const std::vector<int> items{10 * (me + 1), 10 * (me + 1) + 1};
    const std::vector<int> dest{me, peer};
    auto sched = LightweightSchedule::build(comm, dest);

    std::vector<int> out;
    Engine engine(comm);
    const CommHandle h =
        engine.post_migrate<int>(std::move(sched), items, out);
    // Items that stay local are visible immediately after the post.
    EXPECT_EQ(out, (std::vector<int>{10 * (me + 1)}));
    engine.flush();
    engine.wait(h);
    EXPECT_EQ(out, (std::vector<int>{10 * (me + 1), 10 * (peer + 1) + 1}));
  });
}

}  // namespace
}  // namespace chaos::core
