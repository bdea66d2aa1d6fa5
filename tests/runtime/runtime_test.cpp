// Tests for the chaos::Runtime facade: handle lifetime, inspector cache
// reuse/invalidation via modification records, merged/incremental schedule
// equivalence against the paper's Figure 6 golden expectations, epoch
// retirement invalidating stale handles, irregular loops through
// chaos::forall, and the process-wide uniqueness of indirection-array ids.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using sim::Comm;
using sim::Machine;

// ---- Figure 6 golden expectations -----------------------------------------
//
// Same worked example as tests/core/schedule_test.cpp, driven through
// Runtime handles: proc 0 owns globals 0..4, proc 1 owns globals 5..9;
// processor 0 inspects ia/ib/ic. Expected off-processor fetch sets
// (0-based): only(a) -> {6,8}; only(b) -> {6,7}; b-a -> {7};
// merged(a,b,c) -> {6,8,7,9}.

struct Fig6Handles {
  DistHandle dist;
  lang::IndirectionArray ia, ib, ic;
  ScheduleHandle a, b, c;
};

// Populates caller-owned storage: bind() registers the indirection arrays
// by address, so they must already live at their final location.
void setup_figure6(Runtime& rt, Comm& comm, Fig6Handles& f) {
  std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  f.dist = rt.irregular(map);
  if (comm.rank() == 0) {
    f.ia.assign({0, 2, 6, 8, 1});
    f.ib.assign({0, 4, 6, 7, 1});
    f.ic.assign({3, 2, 9, 7, 8});
  }
  f.a = rt.inspect(f.dist, f.ia);
  f.b = rt.inspect(f.dist, f.ib);
  f.c = rt.inspect(f.dist, f.ic);
}

// The globals fetched by a schedule, from rank 1's send side (send offsets
// + 5 = the 0-based global ids it ships).
std::vector<GlobalIndex> fetched_globals_rank1(const core::Schedule& s) {
  std::vector<GlobalIndex> out;
  for (const auto& blk : s.send_blocks())
    for (GlobalIndex off : blk.indices) out.push_back(off + 5);
  return out;
}

TEST(RuntimeFigure6, LoopSchedulesMatchGoldens) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    Fig6Handles f;
    setup_figure6(rt, comm, f);
    if (comm.rank() == 1) {
      EXPECT_EQ(fetched_globals_rank1(rt.schedule(f.a)),
                (std::vector<GlobalIndex>{6, 8}));
      EXPECT_EQ(fetched_globals_rank1(rt.schedule(f.b)),
                (std::vector<GlobalIndex>{6, 7}));
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(rt.schedule(f.a).recv_total(0), 2);
      EXPECT_EQ(rt.schedule(f.a).send_total(0), 0);
    }
  });
}

TEST(RuntimeFigure6, MergedAndIncrementalMatchGoldens) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    Fig6Handles f;
    setup_figure6(rt, comm, f);
    const ScheduleHandle inc = rt.incremental(f.b, f.a);
    const ScheduleHandle merged = rt.merge({f.a, f.b, f.c});
    if (comm.rank() == 1) {
      EXPECT_EQ(fetched_globals_rank1(rt.schedule(inc)),
                (std::vector<GlobalIndex>{7}));
      EXPECT_EQ(fetched_globals_rank1(rt.schedule(merged)),
                (std::vector<GlobalIndex>{6, 8, 7, 9}));
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(rt.schedule(merged).recv_total(0), 4);
    }
  });
}

TEST(RuntimeFigure6, LocalizedRefsMatchHandComputation) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    Fig6Handles f;
    setup_figure6(rt, comm, f);
    if (comm.rank() != 0) return;
    // Owned region is 5 elements; ghosts 6,8,7,9 get slots 5,6,7,8.
    const LoopHandle la = rt.bind(f.dist, f.ia);
    const LoopHandle lb = rt.bind(f.dist, f.ib);
    const LoopHandle lc = rt.bind(f.dist, f.ic);
    EXPECT_EQ(std::vector<GlobalIndex>(rt.local_refs(la).begin(),
                                       rt.local_refs(la).end()),
              (std::vector<GlobalIndex>{0, 2, 5, 6, 1}));
    EXPECT_EQ(std::vector<GlobalIndex>(rt.local_refs(lb).begin(),
                                       rt.local_refs(lb).end()),
              (std::vector<GlobalIndex>{0, 4, 5, 7, 1}));
    EXPECT_EQ(std::vector<GlobalIndex>(rt.local_refs(lc).begin(),
                                       rt.local_refs(lc).end()),
              (std::vector<GlobalIndex>{3, 2, 8, 7, 6}));
  });
}

TEST(RuntimeFigure6, MergedGatherDeliversExpectedValues) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    Fig6Handles f;
    setup_figure6(rt, comm, f);
    const ScheduleHandle merged = rt.merge({f.a, f.b, f.c});
    // y[g] = 100 + g on its owner.
    std::vector<double> y(static_cast<size_t>(rt.extent(merged)), -1.0);
    for (int k = 0; k < 5; ++k)
      y[static_cast<size_t>(k)] = 100.0 + comm.rank() * 5 + k;
    rt.gather<double>(merged, y);
    if (comm.rank() == 0) {
      // slots 5..8 hold globals 6,8,7,9
      EXPECT_EQ(y[5], 106.0);
      EXPECT_EQ(y[6], 108.0);
      EXPECT_EQ(y[7], 107.0);
      EXPECT_EQ(y[8], 109.0);
    }
  });
}

// ---- Inspector cache: reuse and invalidation ------------------------------

TEST(RuntimeInspect, ReusesPlanWhileUnchanged) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(20);
    lang::IndirectionArray ind(
        comm.rank() == 0 ? std::vector<GlobalIndex>{0, 10, 11}
                         : std::vector<GlobalIndex>{19, 1, 2});
    const ScheduleHandle h1 = rt.inspect(d, ind);
    const ScheduleHandle h2 = rt.inspect(d, ind);
    EXPECT_EQ(h1, h2);  // stable handle identity
    EXPECT_EQ(rt.registry_stats(d).builds, 1u);
    EXPECT_EQ(rt.registry_stats(d).reuses, 1u);
  });
}

TEST(RuntimeInspect, AssignInvalidatesAndRebuilds) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(20);
    lang::IndirectionArray ind(std::vector<GlobalIndex>{0, 1});
    const LoopHandle loop = rt.bind(d, ind);
    rt.inspect(loop);
    ind.assign({2, 3, 19});
    rt.inspect(loop);
    EXPECT_EQ(rt.registry_stats(d).builds, 2u);
    EXPECT_EQ(rt.local_refs(loop).size(), 3u);
  });
}

TEST(RuntimeInspect, OneRanksChangeForcesGlobalRebuild) {
  // The modification record is checked globally: if only rank 0's list
  // changed, rank 1 must still participate in the rebuild collective.
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(20);
    lang::IndirectionArray ind(std::vector<GlobalIndex>{0, 19});
    rt.inspect(d, ind);
    if (comm.rank() == 0) ind.assign({5, 6});
    rt.inspect(d, ind);  // must not deadlock
    EXPECT_EQ(rt.registry_stats(d).builds, 2u);
  });
}

TEST(RuntimeInspect, ReinspectionStalesDerivedSchedules) {
  // A merged schedule derived from a loop becomes invalid when that loop is
  // re-inspected after its array changed; re-deriving refreshes it.
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(20);
    lang::IndirectionArray ia(std::vector<GlobalIndex>{0, 19});
    lang::IndirectionArray ib(std::vector<GlobalIndex>{1, 18});
    const ScheduleHandle ha = rt.inspect(d, ia);
    const ScheduleHandle hb = rt.inspect(d, ib);
    ScheduleHandle merged = rt.merge({ha, hb});
    EXPECT_TRUE(rt.valid(merged));

    ib.assign({2, 17});
    rt.inspect(d, ib);
    EXPECT_FALSE(rt.valid(merged));
    std::vector<double> data(static_cast<size_t>(rt.local_extent(d)));
    EXPECT_THROW(rt.gather<double>(merged, std::span<double>{data}), Error);

    merged = rt.merge({ha, hb});
    EXPECT_TRUE(rt.valid(merged));
  });
}

// ---- Handle lifetime: repartition / retire --------------------------------

TEST(RuntimeEpochs, RetireInvalidatesStaleHandles) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d1 = rt.block(8);
    lang::IndirectionArray ind(std::vector<GlobalIndex>{0, 7});
    const LoopHandle loop = rt.bind(d1, ind);
    const ScheduleHandle h = rt.inspect(loop);
    EXPECT_TRUE(rt.valid(d1));
    EXPECT_TRUE(rt.valid(loop));
    EXPECT_TRUE(rt.valid(h));

    // Repartition into a swapped distribution, remap, retire the old epoch.
    std::vector<int> swapped{1, 1, 1, 1, 0, 0, 0, 0};
    const DistHandle d2 = rt.irregular(swapped);
    const ScheduleHandle remap = rt.plan_remap(d1, d2);
    std::vector<double> old_data(static_cast<size_t>(rt.owned_count(d1)));
    auto mine = rt.owned_globals(d1);
    for (std::size_t i = 0; i < mine.size(); ++i)
      old_data[i] = 100.0 + static_cast<double>(mine[i]);
    std::vector<double> new_data =
        rt.remap<double>(remap, std::span<const double>{old_data});
    rt.retire(d1);

    EXPECT_FALSE(rt.valid(d1));
    EXPECT_FALSE(rt.valid(loop));
    EXPECT_FALSE(rt.valid(h));
    EXPECT_TRUE(rt.valid(d2));
    std::vector<double> buf(16, 0.0);
    EXPECT_THROW(rt.gather<double>(h, std::span<double>{buf}), Error);
    EXPECT_THROW((void)rt.owned_count(d1), Error);
    EXPECT_THROW((void)rt.local_refs(loop), Error);

    // The remapped data landed under the new distribution.
    auto new_mine = rt.owned_globals(d2);
    ASSERT_EQ(new_data.size(), new_mine.size());
    for (std::size_t i = 0; i < new_mine.size(); ++i)
      EXPECT_EQ(new_data[i], 100.0 + static_cast<double>(new_mine[i]));

    // A fresh inspection under the new epoch works.
    const ScheduleHandle h2 = rt.inspect(d2, ind);
    EXPECT_TRUE(rt.valid(h2));
  });
}

TEST(RuntimeEpochs, RepartitionProducesBalancedFreshEpoch) {
  Machine m(4);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d1 = rt.block(64);
    auto mine = rt.owned_globals(d1);
    std::vector<part::Point3> points(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const double x = static_cast<double>(mine[i]);
      points[i] = {x, 0.5 * x, 0.25 * x};
    }
    std::vector<double> weights(mine.size(), 1.0);
    const DistHandle d2 =
        rt.repartition(d1, core::PartitionerKind::kRcb, points, weights);
    EXPECT_TRUE(rt.valid(d1));  // stays usable until retired
    EXPECT_EQ(rt.global_size(d2), 64);
    const GlobalIndex total = comm.allreduce_sum(rt.owned_count(d2));
    EXPECT_EQ(total, 64);
    rt.retire(d1);
    EXPECT_FALSE(rt.valid(d1));
  });
}

// ---- Remap of aligned arrays ----------------------------------------------

TEST(RuntimeRemap, MovesAlignedArraysBetweenEpochs) {
  // One remap plan moves every array aligned with the old epoch.
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle block = rt.block(8);
    std::vector<int> swapped{1, 1, 1, 1, 0, 0, 0, 0};
    const DistHandle irreg = rt.irregular(swapped);

    const auto mine = rt.owned_globals(block);
    std::vector<double> x(mine.size()), y(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      x[i] = 100.0 + static_cast<double>(mine[i]);
      y[i] = -static_cast<double>(mine[i]);
    }

    const ScheduleHandle remap = rt.plan_remap(block, irreg);
    const std::vector<double> x2 =
        rt.remap<double>(remap, std::span<const double>{x});
    std::vector<double> y2(static_cast<std::size_t>(rt.owned_count(irreg)));
    rt.remap<double>(remap, y, y2);

    const auto new_mine = rt.owned_globals(irreg);
    ASSERT_EQ(x2.size(), new_mine.size());
    for (std::size_t i = 0; i < new_mine.size(); ++i) {
      EXPECT_EQ(x2[i], 100.0 + static_cast<double>(new_mine[i]));
      EXPECT_EQ(y2[i], -static_cast<double>(new_mine[i]));
    }
  });
}

// ---- Irregular loops through chaos::forall -------------------------------

TEST(RuntimeLoop, BuilderMatchesSequentialReduction) {
  // x(ind(j)) += 2 * y(ind(j)) over a random indirection array, assembled
  // from views (forall + in/sum), compared against a sequential evaluation
  // of the same loop.
  const int P = 4;
  const GlobalIndex N = 50;
  Machine m(P);

  // Sequential reference.
  std::vector<double> seq_y(static_cast<size_t>(N));
  for (GlobalIndex g = 0; g < N; ++g)
    seq_y[static_cast<size_t>(g)] = 1.0 + static_cast<double>(g);
  std::vector<double> seq_x(static_cast<size_t>(N), 0.0);
  std::vector<GlobalIndex> all_refs;
  {
    Rng rng(33);
    for (int r = 0; r < P; ++r)
      for (int k = 0; k < 30; ++k)
        all_refs.push_back(static_cast<GlobalIndex>(rng.below(N)));
    for (GlobalIndex g : all_refs)
      seq_x[static_cast<size_t>(g)] += 2.0 * seq_y[static_cast<size_t>(g)];
  }

  m.run([&](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.cyclic(N);
    Array<double> x(rt, d, "x"), y(rt, d, "y");
    y.fill([](GlobalIndex g) { return 1.0 + static_cast<double>(g); });

    // This rank executes its slice of the reference stream.
    lang::IndirectionArray ind(std::vector<GlobalIndex>(
        all_refs.begin() + comm.rank() * 30,
        all_refs.begin() + (comm.rank() + 1) * 30));

    const LoopHandle loop = forall(rt, d, ind, in(y), sum(x))
                                .run([&](std::span<const GlobalIndex> lrefs) {
                                  for (GlobalIndex j : lrefs)
                                    x[j] += 2.0 * y[j];
                                });
    EXPECT_TRUE(rt.valid(loop));

    const std::vector<GlobalIndex>& mine = x.globals();
    for (std::size_t i = 0; i < mine.size(); ++i)
      EXPECT_NEAR(x[static_cast<GlobalIndex>(i)],
                  seq_x[static_cast<size_t>(mine[i])], 1e-12)
          << "global " << mine[i];
  });
}

TEST(RuntimeLoop, RepeatedRunsReuseInspectorAndDoNotDoubleCount) {
  // Ghost accumulators must reset between executions, and unchanged loops
  // must reuse their plan.
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(10);
    Array<double> x(rt, d, "x"), y(rt, d, "y");
    y.fill([](GlobalIndex) { return 1.0; });
    // Both ranks reference global 0 (owned by rank 0).
    lang::IndirectionArray ind(std::vector<GlobalIndex>{0});
    for (int step = 0; step < 3; ++step) {
      for (GlobalIndex i = 0; i < x.owned(); ++i) x[i] = 0.0;
      forall(rt, d, ind, in(y), sum(x))
          .run([&](std::span<const GlobalIndex> lrefs) {
            for (GlobalIndex j : lrefs) x[j] += 1.0;
          });
      if (comm.rank() == 0) {
        EXPECT_EQ(x[0], 2.0) << "step " << step;
      }
    }
    EXPECT_EQ(rt.registry_stats(d).builds, 1u);
    EXPECT_EQ(rt.registry_stats(d).reuses, 2u);
  });
}

// ---- One-shot inspector and migration wrappers ----------------------------

TEST(RuntimeOnce, OneShotInspectorLocalizesAndGathers) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    const DistHandle d = rt.irregular(map);
    std::vector<GlobalIndex> refs;
    if (comm.rank() == 0) refs = {0, 6, 8};
    const ScheduleHandle h = rt.inspect_once(d, refs);
    std::vector<double> y(static_cast<size_t>(rt.extent(h)), -1.0);
    for (int k = 0; k < 5; ++k)
      y[static_cast<size_t>(k)] = 100.0 + comm.rank() * 5 + k;
    rt.gather<double>(h, std::span<double>{y});
    if (comm.rank() == 0) {
      for (std::size_t k = 0; k < refs.size(); ++k) {
        const GlobalIndex g = (std::vector<GlobalIndex>{0, 6, 8})[k];
        EXPECT_EQ(y[static_cast<size_t>(refs[k])], 100.0 + g);
      }
    }
  });
}

TEST(RuntimeOnce, NewOneShotRevokesPreviousHandle) {
  // A stale one-shot handle must fail loudly, not alias the newest
  // pattern's schedule.
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    const DistHandle d = rt.irregular(map);
    std::vector<GlobalIndex> refs1, refs2;
    if (comm.rank() == 0) {
      refs1 = {6};
      refs2 = {7, 8};
    }
    const ScheduleHandle h1 = rt.inspect_once(d, refs1);
    EXPECT_TRUE(rt.valid(h1));
    const ScheduleHandle h2 = rt.inspect_once(d, refs2);
    EXPECT_FALSE(rt.valid(h1));
    EXPECT_TRUE(rt.valid(h2));
    std::vector<double> y(16, 0.0);
    EXPECT_THROW(rt.gather<double>(h1, std::span<double>{y}), Error);
  });
}

TEST(RuntimeMigrate, MovesItemsToDestinations) {
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    // Every rank sends one item to each rank (including itself).
    std::vector<int> dest{0, 1, 2};
    std::vector<int> items{comm.rank() * 10, comm.rank() * 10 + 1,
                           comm.rank() * 10 + 2};
    std::vector<int> out;
    rt.migrate<int>(dest, items, out);
    ASSERT_EQ(out.size(), 3u);
    std::set<int> got(out.begin(), out.end());
    std::set<int> expect{comm.rank(), 10 + comm.rank(), 20 + comm.rank()};
    EXPECT_EQ(got, expect);
  });
}

// ---- Indirection-array id uniqueness across threads -----------------------

TEST(IndirectionArray, IdsUniqueAcrossThreads) {
  // Arrays created on different threads (e.g. one rank thread each) must
  // never share an id: per-rank caches key plans on it.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ids, t] {
      for (int k = 0; k < kPerThread; ++k)
        ids[static_cast<size_t>(t)].push_back(lang::IndirectionArray().id());
    });
  }
  for (auto& w : workers) w.join();
  std::set<std::uint64_t> unique;
  for (const auto& v : ids) unique.insert(v.begin(), v.end());
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace chaos
