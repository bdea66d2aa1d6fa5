// Tests for the Fortran D embedding: distributions, aligned arrays,
// remapping, the inspector cache's modification records, and the
// forall/reduce lowerings.
#include <gtest/gtest.h>

#include <numeric>

#include "lang/array.hpp"
#include "lang/distribution.hpp"
#include "lang/forall.hpp"
#include "runtime/runtime.hpp"
#include "runtime/schedule_registry.hpp"
#include "util/rng.hpp"

namespace chaos::lang {
namespace {

using sim::Comm;
using sim::Machine;

TEST(Distribution, BlockMatchesLayout) {
  Machine m(3);
  m.run([](Comm& c) {
    auto d = Distribution::block(c, 10);
    part::BlockLayout l(10, 3);
    for (GlobalIndex g = 0; g < 10; ++g)
      EXPECT_EQ(d.table().lookup_local(g).proc, l.owner(g));
    EXPECT_EQ(d.owned_count(c.rank()), l.size_of(c.rank()));
  });
}

TEST(Distribution, CyclicMatchesLayout) {
  Machine m(3);
  m.run([](Comm& c) {
    auto d = Distribution::cyclic(c, 11);
    for (GlobalIndex g = 0; g < 11; ++g)
      EXPECT_EQ(d.table().lookup_local(g).proc, static_cast<int>(g % 3));
  });
}

TEST(Distribution, IrregularFollowsMapArray) {
  Machine m(2);
  m.run([](Comm& c) {
    std::vector<int> map{1, 0, 1, 0, 1};
    auto d = Distribution::irregular(c, map);
    for (GlobalIndex g = 0; g < 5; ++g)
      EXPECT_EQ(d.table().lookup_local(g).proc, map[static_cast<size_t>(g)]);
  });
}

TEST(Distribution, EpochsDistinguishInstances) {
  Machine m(1);
  m.run([](Comm& c) {
    auto d1 = Distribution::block(c, 4);
    auto d2 = Distribution::block(c, 4);
    EXPECT_NE(d1.epoch(), d2.epoch());
  });
}

TEST(DistributedArray, SizesFollowDistribution) {
  // ALIGN x WITH d: a chaos::Array's owned region follows its epoch and
  // its ghost region grows on demand, never below the owned part.
  Machine m(2);
  m.run([](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(7);
    Array<double> x(rt, d, "x");
    EXPECT_EQ(x.owned(), rt.dist(d).owned_count(c.rank()));
    x.ensure_extent(x.owned() + 3);
    EXPECT_EQ(static_cast<GlobalIndex>(x.local().size()), x.owned() + 3);
    EXPECT_THROW(x.ensure_extent(x.owned() - 1), Error);
  });
}

TEST(Remapper, MovesAlignedArraysBetweenDistributions) {
  // Executable re-DISTRIBUTE: one rt.plan_remap schedule moves every
  // aligned array onto the new distribution (Array::retarget runs it).
  Machine m(2);
  m.run([](Comm& c) {
    Runtime rt(c);
    const DistHandle block = rt.block(8);
    const DistHandle irreg =
        rt.irregular(std::vector<int>{1, 1, 1, 1, 0, 0, 0, 0});

    Array<double> x(rt, block, "x");
    x.fill([](GlobalIndex g) { return 100.0 + static_cast<double>(g); });

    x.retarget(rt.plan_remap(block, irreg), irreg);

    const auto new_mine = rt.owned_globals(irreg);
    ASSERT_EQ(x.owned(), static_cast<GlobalIndex>(new_mine.size()));
    for (std::size_t i = 0; i < new_mine.size(); ++i)
      EXPECT_EQ(x[static_cast<GlobalIndex>(i)],
                100.0 + static_cast<double>(new_mine[i]));
  });
}

TEST(ScheduleRegistry, ReusesPlanWhileUnchanged) {
  Machine m(2);
  m.run([](Comm& c) {
    auto d = Distribution::block(c, 20);
    runtime::ScheduleRegistry cache;
    IndirectionArray ind(
        c.rank() == 0 ? std::vector<GlobalIndex>{0, 10, 11}
                      : std::vector<GlobalIndex>{19, 1, 2});
    const LoopPlan& p1 = cache.plan(c, d, ind);
    (void)p1;
    const LoopPlan& p2 = cache.plan(c, d, ind);
    (void)p2;
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().reuses, 1u);
  });
}

TEST(ScheduleRegistry, RebuildsWhenIndirectionChanges) {
  Machine m(2);
  m.run([](Comm& c) {
    auto d = Distribution::block(c, 20);
    runtime::ScheduleRegistry cache;
    IndirectionArray ind(std::vector<GlobalIndex>{0, 1});
    cache.plan(c, d, ind);
    ind.assign({2, 3, 19});
    const LoopPlan& p = cache.plan(c, d, ind);
    EXPECT_EQ(cache.stats().builds, 2u);
    EXPECT_EQ(p.local_refs.size(), 3u);
  });
}

TEST(ScheduleRegistry, OneRanksChangeForcesGlobalRebuild) {
  // The modification record is checked globally: if only rank 0's list
  // changed, rank 1 must still participate in the rebuild collective.
  Machine m(2);
  m.run([](Comm& c) {
    auto d = Distribution::block(c, 20);
    runtime::ScheduleRegistry cache;
    IndirectionArray ind(std::vector<GlobalIndex>{0, 19});
    cache.plan(c, d, ind);
    if (c.rank() == 0) ind.assign({5, 6});
    cache.plan(c, d, ind);  // must not deadlock
    EXPECT_EQ(cache.stats().builds, 2u);
  });
}

TEST(ScheduleRegistry, DistributionChangeInvalidates) {
  Machine m(2);
  m.run([](Comm& c) {
    auto d1 = Distribution::block(c, 20);
    runtime::ScheduleRegistry cache;
    IndirectionArray ind(std::vector<GlobalIndex>{0, 19});
    cache.plan(c, d1, ind);
    auto d2 = Distribution::cyclic(c, 20);
    const LoopPlan& p = cache.plan(c, d2, ind);
    EXPECT_EQ(cache.stats().builds, 2u);
    // Under cyclic on 2 ranks each rank owns one of {0, 19} and fetches
    // the other; under the original block distribution rank 0 owned both.
    EXPECT_EQ(p.schedule.recv_total(c.rank()), 1);
  });
}

TEST(IndirectionArray, AssignKeepsSlotDeltaUpToAQuarter) {
  IndirectionArray ind(std::vector<GlobalIndex>{0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(ind.delta(), nullptr);
  ind.assign({0, 9, 2, 3, 4, 5, 8, 7});  // exactly a quarter changed
  ASSERT_NE(ind.delta(), nullptr);
  EXPECT_EQ(ind.delta()->slots, (std::vector<std::uint32_t>{1, 6}));
  EXPECT_EQ(ind.delta()->old_values, (std::vector<GlobalIndex>{1, 6}));

  // A move carries the record; the moved-from array drops it.
  IndirectionArray moved(std::move(ind));
  ASSERT_NE(moved.delta(), nullptr);
  EXPECT_EQ(moved.delta()->slots.size(), 2u);
  EXPECT_EQ(ind.delta(), nullptr);  // NOLINT(bugprone-use-after-move)
  IndirectionArray assigned;
  assigned = std::move(moved);
  ASSERT_NE(assigned.delta(), nullptr);
  EXPECT_EQ(moved.delta(), nullptr);  // NOLINT(bugprone-use-after-move)

  assigned.assign({1, 10, 2, 3, 4, 5, 8, 6});  // 3 of 8 changed
  EXPECT_EQ(assigned.delta(), nullptr);
  assigned.assign({1, 10, 2, 3, 4, 5, 8, 6});  // same contents: empty delta
  ASSERT_NE(assigned.delta(), nullptr);
  EXPECT_TRUE(assigned.delta()->slots.empty());
  assigned.assign({1, 9});  // length changed
  EXPECT_EQ(assigned.delta(), nullptr);
}

TEST(ForallReduceSum, MatchesSequentialReduction) {
  // x(ind(j)) += y(ind(j)) * 2 over a random indirection array, compared
  // against a sequential evaluation of the same loop.
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

  m.run([&](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.cyclic(N);
    Array<double> x(rt, d, "x"), y(rt, d, "y");
    y.fill([](GlobalIndex g) { return 1.0 + static_cast<double>(g); });

    // This rank executes its slice of the reference stream.
    std::vector<GlobalIndex> refs(
        all_refs.begin() + c.rank() * 30,
        all_refs.begin() + (c.rank() + 1) * 30);
    IndirectionArray ind(refs);
    const LoopHandle loop =
        forall_reduce_sum(rt, d, ind, y, x,
                          [&](std::span<const GlobalIndex> lrefs) {
                            for (GlobalIndex j : lrefs) x[j] += 2.0 * y[j];
                          });
    EXPECT_TRUE(rt.valid(loop));

    const std::vector<GlobalIndex>& mine = x.globals();
    for (std::size_t i = 0; i < mine.size(); ++i)
      EXPECT_NEAR(x[static_cast<GlobalIndex>(i)],
                  seq_x[static_cast<size_t>(mine[i])], 1e-12)
          << "global " << mine[i];
  });
}

TEST(ForallReduceSum, RepeatedExecutionsDoNotDoubleCount) {
  // Ghost accumulators must reset between executions.
  Machine m(2);
  m.run([](Comm& c) {
    Runtime rt(c);
    const DistHandle d = rt.block(10);
    Array<double> x(rt, d, "x"), y(rt, d, "y");
    y.fill([](GlobalIndex) { return 1.0; });
    // Both ranks reference global 0 (owned by rank 0).
    IndirectionArray ind(std::vector<GlobalIndex>{0});
    for (int step = 0; step < 3; ++step) {
      for (GlobalIndex i = 0; i < x.owned(); ++i) x[i] = 0.0;
      forall_reduce_sum(rt, d, ind, y, x,
                        [&](std::span<const GlobalIndex> lrefs) {
                          for (GlobalIndex j : lrefs) x[j] += 1.0;
                        });
      if (c.rank() == 0) {
        EXPECT_EQ(x[0], 2.0) << "step " << step;
      }
    }
    EXPECT_EQ(rt.registry_stats(d).builds, 1u);
    EXPECT_EQ(rt.registry_stats(d).reuses, 2u);
  });
}

TEST(ReduceAppend, DeliversItemsToRowOwners) {
  Machine m(3);
  m.run([](Comm& c) {
    auto rows = Distribution::block(c, 9);  // 3 rows per rank
    // Each rank emits one item per global row.
    struct Item {
      GlobalIndex row;
      double v;
    };
    std::vector<Item> items;
    std::vector<GlobalIndex> dest;
    for (GlobalIndex r = 0; r < 9; ++r) {
      items.push_back(Item{r, static_cast<double>(c.rank())});
      dest.push_back(r);
    }
    std::vector<Item> received;
    reduce_append<Item>(c, rows, dest, items, received);
    EXPECT_EQ(received.size(), 9u);  // 3 rows x 3 ranks
    for (const auto& it : received)
      EXPECT_EQ(rows.table().lookup_local(it.row).proc, c.rank());
  });
}

TEST(RecomputeRowSizes, CountsMatchDeliveredItems) {
  Machine m(3);
  m.run([](Comm& c) {
    auto rows = Distribution::block(c, 6);
    // Rank r sends r+1 items to every row.
    std::vector<GlobalIndex> dest;
    for (GlobalIndex row = 0; row < 6; ++row)
      for (int k = 0; k <= c.rank(); ++k) dest.push_back(row);
    auto sizes = recompute_row_sizes(c, rows, dest);
    ASSERT_EQ(static_cast<GlobalIndex>(sizes.size()),
              rows.owned_count(c.rank()));
    // Every row receives 1+2+3 = 6 items in total.
    for (GlobalIndex s : sizes) EXPECT_EQ(s, 6);
  });
}

}  // namespace
}  // namespace chaos::lang
