// Runtime-level comm engine tests: gather_async/scatter_add_async posting
// through ScheduleHandles with per-peer coalescing, async light-weight
// migration overlapped with local work, arrival-driven receives
// (arrival_order / receive_peer), and registry memory hygiene
// (Runtime::compact) after epoch retirement.
#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using sim::Comm;
using sim::Machine;

// Figure-6 shape: proc 0 owns globals 0..4, proc 1 owns globals 5..9;
// rank 0 drives two independent irregular loops.
struct TwoLoops {
  DistHandle dist;
  lang::IndirectionArray ia, ib;
  ScheduleHandle a, b;
};

void setup_two_loops(Runtime& rt, Comm& comm, TwoLoops& f) {
  std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  f.dist = rt.irregular(map);
  if (comm.rank() == 0) {
    f.ia.assign({0, 2, 6, 8, 1});
    f.ib.assign({0, 4, 6, 7, 1});
  }
  f.a = rt.inspect(f.dist, f.ia);
  f.b = rt.inspect(f.dist, f.ib);
}

TEST(RuntimeCommEngine, AsyncGathersMatchBlockingAndCoalesce) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    TwoLoops f;
    setup_two_loops(rt, comm, f);
    const auto extent = static_cast<std::size_t>(rt.local_extent(f.dist));

    // Owned values: global id; ghosts start poisoned.
    std::vector<double> blocking(extent, -1.0), async(extent, -1.0);
    for (std::size_t i = 0; i < 5; ++i) {
      blocking[i] = comm.rank() * 5 + static_cast<double>(i);
      async[i] = blocking[i];
    }

    // Setup (inspection) communicates, so compare deltas from here on.
    const std::uint64_t base = comm.stats().msgs_sent;
    rt.gather<double>(f.a, std::span<double>{blocking});
    rt.gather<double>(f.b, std::span<double>{blocking});
    const std::uint64_t blocking_msgs = comm.stats().msgs_sent - base;

    rt.gather_async<double>(f.a, std::span<double>{async});
    rt.gather_async<double>(f.b, std::span<double>{async});
    rt.comm_flush();
    const std::uint64_t engine_msgs =
        comm.stats().msgs_sent - base - blocking_msgs;
    rt.comm_wait_all();

    EXPECT_EQ(async, blocking);
    // Rank 1 ships both loops' data to rank 0: two blocking messages, ONE
    // coalesced engine message carrying two segments.
    if (comm.rank() == 1) {
      EXPECT_EQ(blocking_msgs, 2u);
      EXPECT_EQ(engine_msgs, 1u);
      EXPECT_EQ(comm.stats().coalesced_segments,
                comm.stats().coalesced_msgs_sent + 1u);
    }
  });
}

TEST(RuntimeCommEngine, ScatterAddAsyncDeliversExactlyOnce) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    TwoLoops f;
    setup_two_loops(rt, comm, f);
    // Disjoint complement, as the drivers use for the scatter direction.
    const ScheduleHandle b_excl = rt.incremental(f.b, f.a);
    const auto extent = static_cast<std::size_t>(rt.local_extent(f.dist));

    std::vector<double> acc(extent, 0.0);
    for (std::size_t i = 5; i < extent; ++i) acc[i] = 1.0;  // ghost slots

    rt.scatter_add_async<double>(f.a, std::span<double>{acc});
    rt.scatter_add_async<double>(b_excl, std::span<double>{acc});
    rt.comm_flush();
    rt.comm_wait_all();

    if (comm.rank() == 1) {
      // Globals 6,7,8 each referenced off-processor; every contribution
      // arrives exactly once even though loop a and b share global 6.
      EXPECT_EQ(acc[1], 1.0);  // global 6: in a and b, delivered once
      EXPECT_EQ(acc[2], 1.0);  // global 7: only in b (via b - a)
      EXPECT_EQ(acc[3], 1.0);  // global 8: only in a
    }
  });
}

TEST(RuntimeCommEngine, MigrateAsyncOverlapsLocalWork) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const int me = comm.rank();
    const int peer = 1 - me;
    const std::vector<int> items{me * 2, me * 2 + 1};
    const std::vector<int> dest{me, peer};

    std::vector<int> arrived;
    const comm::CommHandle h = rt.migrate_async<int>(dest, items, arrived);
    rt.comm_flush();
    // Local work overlapped with the transfer.
    double acc = 0;
    for (int i = 0; i < 100; ++i) acc += i;
    comm.charge_work(acc > 0 ? 100.0 : 0.0);
    rt.comm_wait(h);

    EXPECT_EQ(arrived, (std::vector<int>{me * 2, peer * 2 + 1}));
    EXPECT_TRUE(rt.engine().idle());
  });
}

// ---- engine edge cases -----------------------------------------------------

// Delta-migrate with nothing to move: every rank posts an empty batch. The
// operation must complete (after the collective schedule build) without
// sending a byte, and the engine must go idle.
TEST(RuntimeCommEngine, EmptyMigrateBatchCompletes) {
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const std::vector<int> dest;           // no items anywhere
    const std::vector<double> items;
    std::vector<double> out{-7.0};         // pre-existing content survives
    const comm::Engine::Traffic before = rt.engine().traffic();
    const comm::CommHandle h =
        rt.migrate_async<double>(dest, items, out);
    rt.comm_flush();
    rt.comm_wait(h);
    EXPECT_EQ(out, (std::vector<double>{-7.0}));
    EXPECT_TRUE(rt.engine().idle());
    EXPECT_EQ(rt.engine().traffic().bytes, before.bytes);
  });
}

// Flushing with zero posted operations is a no-op: no tag draw, no
// messages, engine still idle — and a normal operation afterwards works.
TEST(RuntimeCommEngine, FlushWithZeroPostedOpsIsNoOp) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const std::uint64_t sent_before = comm.stats().msgs_sent;
    rt.comm_flush();
    rt.comm_flush();
    EXPECT_TRUE(rt.engine().idle());
    EXPECT_EQ(comm.stats().msgs_sent, sent_before);

    TwoLoops f;
    setup_two_loops(rt, comm, f);
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(f.dist)),
                          -1.0);
    for (std::size_t i = 0; i < 5; ++i)
      x[i] = comm.rank() * 5 + static_cast<double>(i);
    rt.gather_async<double>(f.a, std::span<double>{x});
    rt.comm_flush();
    rt.comm_wait_all();
    EXPECT_TRUE(rt.engine().idle());
  });
}

// wait() on an operation that already completed — locally empty at post
// time, or fully received by an earlier wait — must return immediately and
// stay callable; test()/done() agree.
TEST(RuntimeCommEngine, WaitOnCompletedHandleIsIdempotent) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    TwoLoops f;
    setup_two_loops(rt, comm, f);
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(f.dist)),
                          -1.0);
    for (std::size_t i = 0; i < 5; ++i)
      x[i] = comm.rank() * 5 + static_cast<double>(i);

    const comm::CommHandle h =
        rt.gather_async<double>(f.a, std::span<double>{x});
    rt.comm_flush();
    rt.comm_wait(h);
    EXPECT_TRUE(rt.engine().done(h));
    rt.comm_wait(h);  // second wait: immediate no-op
    EXPECT_TRUE(rt.engine().test(h));
    EXPECT_TRUE(rt.engine().done(h));
    EXPECT_TRUE(rt.engine().idle());
    // Rank 1 fetches nothing for loop a (it has no references): its share
    // completed at post time, and both waits returned without hanging the
    // machine-wide flush discipline. Rank 0's ghosts arrived exactly once:
    // global 6 lands in the first ghost slot.
    if (comm.rank() == 0) {
      EXPECT_EQ(x[5], 6.0);
    }
  });
}

// The delta remap plan of a reusing repartition ships only the moved
// elements: the engine's traffic counter grows by exactly the moved bytes.
TEST(RuntimeCommEngine, DeltaRemapMigratesOnlyMovedBytes) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    const DistHandle d1 = rt.irregular(map);

    std::vector<int> next = map;
    next[9] = 0;  // exactly one element changes owner (rank 1 -> rank 0)
    const DistHandle d2 = rt.repartition(d1, std::span<const int>(next));
    const ScheduleHandle plan = rt.plan_remap(d1, d2);

    const std::size_t old_owned =
        static_cast<std::size_t>(rt.owned_count(d1));
    std::vector<double> src(old_owned);
    for (std::size_t i = 0; i < old_owned; ++i)
      src[i] = comm.rank() * 100 + static_cast<double>(i);
    std::vector<double> dst(static_cast<std::size_t>(rt.owned_count(d2)),
                            -1.0);

    const comm::Engine::Traffic before = rt.engine().traffic();
    const comm::CommHandle h = rt.remap_async<double>(
        plan, std::span<const double>{src}, std::span<double>{dst});
    rt.comm_flush();
    rt.comm_wait(h);

    const comm::Engine::Traffic after = rt.engine().traffic();
    // Only rank 1 ships anything: one message carrying one double.
    EXPECT_EQ(after.bytes - before.bytes,
              comm.rank() == 1 ? sizeof(double) : 0u);
    EXPECT_EQ(after.messages - before.messages, comm.rank() == 1 ? 1u : 0u);
    if (comm.rank() == 0) {
      EXPECT_EQ(dst.back(), 104.0);  // global 9 was rank 1's offset 4
      EXPECT_EQ(dst[0], 0.0);        // stable elements keep their values
    }
  });
}

// ---- arrival-driven receives ----------------------------------------------

TEST(CommEnginePerPeer, ArrivalOrderDrivesGatherToCompletion) {
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(12);  // 4 globals per rank
    // One reference into each other rank's slice: the gather expects
    // exactly one segment from every peer.
    lang::IndirectionArray ind;
    std::vector<GlobalIndex> refs;
    for (int p = 0; p < 3; ++p)
      if (p != comm.rank())
        refs.push_back(static_cast<GlobalIndex>(p) * 4 +
                       (comm.rank() + 1) % 4);
    ind.assign(refs);
    const ScheduleHandle h = rt.inspect(d, ind);

    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)),
                          -1.0);
    for (std::size_t i = 0; i < 4; ++i)
      x[i] = comm.rank() * 4 + static_cast<double>(i);
    // Higher ranks do less work before the flush, so their messages land
    // first: the arrival order is the reverse of the canonical peer order.
    comm.charge_work(1000.0 * (comm.size() - comm.rank()));
    const comm::CommHandle ch =
        rt.gather_async<double>(h, std::span<double>{x});
    rt.comm_flush();

    // Both peers, sorted by (arrival, peer); the query never moves the
    // clock.
    const double before = comm.now();
    const std::vector<comm::Engine::Arrival> order =
        rt.engine().arrival_order(ch);
    EXPECT_EQ(comm.now(), before);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_NE(order[0].peer, comm.rank());
    EXPECT_NE(order[1].peer, comm.rank());
    EXPECT_GT(order[0].peer, order[1].peer);
    EXPECT_LT(order[0].at, order[1].at);

    // Receiving in that order completes the op; each receive lands the
    // clock past its message's modeled arrival.
    for (const comm::Engine::Arrival& a : order) {
      EXPECT_FALSE(rt.engine().done(ch));
      rt.engine().receive_peer(ch, a.peer);
      EXPECT_GT(comm.now(), a.at);
    }
    EXPECT_TRUE(rt.engine().done(ch));
    EXPECT_TRUE(rt.engine().arrival_order(ch).empty());
    EXPECT_THROW(rt.engine().receive_peer(ch, order[0].peer), Error);
    rt.comm_wait_all();

    // Every ghost slot carries its global id's value.
    for (std::size_t i = 4; i < x.size(); ++i) EXPECT_GE(x[i], 0.0);
    double sum = 0.0, expect = 0.0;
    for (std::size_t i = 4; i < x.size(); ++i) sum += x[i];
    for (GlobalIndex r : refs) expect += static_cast<double>(r);
    EXPECT_EQ(sum, expect);
  });
}

/// The non-associative probe shared by the tests below: rank 0 owns one
/// accumulator slot primed with -1e16; rank 1 contributes +1e16, rank 2
/// contributes +1.0. Canonical (ascending peer) combining yields exactly
/// 1.0; arrival-order combining could yield 0.0. Rank 0 also gathers
/// globals 1 and 2.
struct ScatterProbe {
  ScheduleHandle h_add, h_gat;
  std::vector<double> acc, y;

  ScatterProbe(Runtime& rt, Comm& comm) {
    const std::vector<int> map{0, 1, 2};
    const DistHandle d = rt.irregular(map);
    lang::IndirectionArray ind_add;  // ranks 1 and 2 push into global 0
    if (comm.rank() != 0) ind_add.assign({0});
    h_add = rt.inspect(d, ind_add);
    lang::IndirectionArray ind_gat;  // rank 0 gathers globals 1 and 2
    if (comm.rank() == 0) ind_gat.assign({1, 2});
    h_gat = rt.inspect(d, ind_gat);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    acc.assign(extent, 0.0);
    y.assign(extent, 0.0);
    if (comm.rank() == 0) acc[0] = -1e16;
    if (comm.rank() == 1) acc[1] = 1e16;  // ghost slot for global 0
    if (comm.rank() == 2) acc[1] = 1.0;
    y[0] = 10.0 * (comm.rank() + 1);
  }
};

TEST(CommEnginePerPeer, ArrivalDrainKeepsConflictedScatterAddCanonical) {
  // The scatter batch is in flight while rank 0 receives an unrelated
  // gather batch in arrival order: those receives must not touch the
  // scatter's segments, which still combine in canonical order.
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    ScatterProbe p(rt, comm);
    rt.scatter_add_async<double>(p.h_add, std::span<double>{p.acc});
    rt.comm_flush();
    const comm::CommHandle gh =
        rt.gather_async<double>(p.h_gat, std::span<double>{p.y});
    rt.comm_flush();
    if (comm.rank() == 0) {
      for (const comm::Engine::Arrival& a : rt.engine().arrival_order(gh))
        rt.engine().receive_peer(gh, a.peer);
      EXPECT_TRUE(rt.engine().done(gh));
    }
    rt.comm_wait_all();

    if (comm.rank() == 0) {
      EXPECT_EQ(p.acc[0], 1.0);  // (-1e16 + 1e16) + 1.0, canonical order
      EXPECT_EQ(p.y[1] + p.y[2], 50.0);  // gathered rank 1 and 2 values
    }
  });
}

TEST(CommEnginePerPeer, ArrivalOrderRefusesBatchWithOrderDependentOp) {
  // A scatter-add posted into the gather's batch makes the whole batch
  // order-dependent: asking for its arrival order is an error, and the
  // canonical path still completes it.
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    ScatterProbe p(rt, comm);
    rt.scatter_add_async<double>(p.h_add, std::span<double>{p.acc});
    const comm::CommHandle gh =
        rt.gather_async<double>(p.h_gat, std::span<double>{p.y});
    rt.comm_flush();
    EXPECT_THROW(rt.engine().arrival_order(gh), Error);
    rt.comm_wait_all();

    if (comm.rank() == 0) {
      EXPECT_EQ(p.acc[0], 1.0);
      EXPECT_EQ(p.y[1] + p.y[2], 50.0);
    }
  });
}

// ---- registry memory hygiene ----------------------------------------------

TEST(RuntimeCompact, ReleasesRetiredEpochStateAndKeepsLiveEpochsWorking) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    std::vector<int> map1{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    std::vector<int> map2{0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
    const DistHandle d1 = rt.irregular(map1);

    lang::IndirectionArray ind;
    if (comm.rank() == 0) ind.assign({0, 2, 6, 8, 1});
    const ScheduleHandle s1 = rt.inspect(d1, ind);

    // Repartition: move data to a new epoch and retire the old one.
    const DistHandle d2 = rt.irregular(map2);
    const ScheduleHandle remap = rt.plan_remap(d1, d2);
    std::vector<double> src(5);
    for (std::size_t i = 0; i < 5; ++i)
      src[i] = comm.rank() * 5 + static_cast<double>(i);
    std::vector<double> dst = rt.remap<double>(remap, src);
    rt.retire(d1);

    const std::size_t before = rt.registry_bytes();
    ASSERT_GT(before, 0u);
    const std::size_t released = rt.compact();
    const std::size_t after = rt.registry_bytes();
    EXPECT_GT(released, 0u);
    EXPECT_LT(after, before);

    // Retired handles stay invalid after compaction...
    EXPECT_FALSE(rt.valid(d1));
    EXPECT_FALSE(rt.valid(s1));
    std::vector<double> scratch(16, 0.0);
    EXPECT_THROW(rt.gather<double>(s1, std::span<double>{scratch}), Error);

    // ...and the live epoch still plans and executes loops.
    lang::IndirectionArray ind2;
    if (comm.rank() == 0) ind2.assign({0, 1, 3, 5});
    const ScheduleHandle s2 = rt.inspect(d2, ind2);
    std::vector<double> data(
        static_cast<std::size_t>(rt.local_extent(d2)), -1.0);
    for (std::size_t i = 0; i < dst.size(); ++i) data[i] = dst[i];
    rt.gather<double>(s2, std::span<double>{data});
    EXPECT_TRUE(rt.valid(s2));
  });
}

TEST(RuntimeCompact, AccountsArrivalStateAndReleasesChunkPlans) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(8);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);
    lang::IndirectionArray ind(
        std::vector<GlobalIndex>{(comm.rank() == 0 ? GlobalIndex{5}
                                                   : GlobalIndex{1}),
                                 (comm.rank() == 0 ? GlobalIndex{6}
                                                   : GlobalIndex{2})});
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 1.0), y(extent, 0.0);

    const std::size_t idle_bytes = rt.registry_bytes();

    StepGraph g(rt);
    g.set_arrival_driven(true);
    Step& s = g.step("halo").bind(in(x).via(h), update(y));
    s.compute_chunks([&](ChunkContext& ctx) {
      if (ctx.chunk().peer < 0)
        for (std::size_t i = 0; i < globals.size(); ++i) y[i] = 2.0 * x[i];
      ctx.charge(4.0);
    });
    s.chunk_writes_disjoint();
    rt.run(g, 2);

    // The run recorded engine op/completion state and built the graph's
    // chunk plan: both are visible in the registry accounting.
    const std::size_t hot_bytes = rt.registry_bytes();
    EXPECT_GT(hot_bytes, idle_bytes);
    EXPECT_GT(rt.engine().footprint_bytes(), 0u);
    EXPECT_GT(g.footprint_bytes(), 0u);

    // compact() (graph quiesced by run) releases both; the chunk plan is
    // rebuilt lazily, so the graph keeps working afterwards.
    const std::size_t released = rt.compact();
    EXPECT_GE(released, hot_bytes - rt.registry_bytes());
    EXPECT_LT(rt.registry_bytes(), hot_bytes);
    EXPECT_EQ(g.footprint_bytes(), 0u);

    rt.run(g, 1);
    g.quiesce();
    EXPECT_GT(g.footprint_bytes(), 0u);  // plan rebuilt on demand
    for (std::size_t i = 0; i < globals.size(); ++i)
      EXPECT_EQ(y[i], 2.0 * x[i]);
  });
}

TEST(RuntimeCompact, IsIdempotentAndNoOpWithoutRetiredEpochs) {
  Machine m(1);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(8);
    lang::IndirectionArray ind;
    ind.assign({0, 3, 5});
    (void)rt.inspect(d, ind);
    const std::size_t before = rt.registry_bytes();
    EXPECT_EQ(rt.compact(), 0u);      // nothing retired
    EXPECT_EQ(rt.registry_bytes(), before);

    const DistHandle d2 = rt.block(8);
    (void)d2;
    rt.retire(d);
    EXPECT_GT(rt.compact(), 0u);
    EXPECT_EQ(rt.compact(), 0u);      // second pass finds nothing new
  });
}

}  // namespace
}  // namespace chaos
