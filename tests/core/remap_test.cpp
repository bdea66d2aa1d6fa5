// Remap tests: moving distributed arrays between distributions (Phase B)
// and redistributing loop iterations (Phases C/D).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/chaos.hpp"
#include "core/owner_delta.hpp"
#include "support/equivalence.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

using sim::Comm;
using sim::Machine;
namespace ts = testing_support;

/// Execute a remap schedule the way Runtime::remap does: one post through
/// an Engine with the schedule's verbatim plan, then wait.
void remap_through(Comm& comm, const Schedule& sched,
                   std::span<const double> src, std::span<double> dst) {
  const compile::SchedulePlan plan = compile::SchedulePlan::verbatim(sched);
  comm::Engine engine(comm);
  engine.wait(engine.post_transport<double>(sched, src, dst, plan));
}

TEST(Remap, BlockToReversedDistribution) {
  // 8 elements, block on 2 ranks -> reversed ownership.
  Machine m(2);
  m.run([](Comm& comm) {
    std::vector<int> old_map{0, 0, 0, 0, 1, 1, 1, 1};
    std::vector<int> new_map{1, 1, 1, 1, 0, 0, 0, 0};
    auto old_t = TranslationTable::from_full_map(comm, old_map);
    auto new_t = TranslationTable::from_full_map(comm, new_map);

    auto mine = old_t.owned_globals(comm.rank());
    std::vector<double> old_data(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      old_data[i] = 10.0 * static_cast<double>(mine[i]);

    Schedule sched = build_remap_schedule(comm, mine, new_t);
    std::vector<double> new_data(
        static_cast<size_t>(new_t.owned_count(comm.rank())), -1.0);
    remap_through(comm, sched, old_data, new_data);

    auto new_mine = new_t.owned_globals(comm.rank());
    for (std::size_t i = 0; i < new_mine.size(); ++i)
      EXPECT_EQ(new_data[i], 10.0 * static_cast<double>(new_mine[i]));
  });
}

TEST(Remap, IdentityRemapIsSelfCopyOnly) {
  Machine m(2);
  m.run([](Comm& comm) {
    std::vector<int> map{0, 1, 0, 1};
    auto t = TranslationTable::from_full_map(comm, map);
    auto mine = t.owned_globals(comm.rank());
    Schedule sched = build_remap_schedule(comm, mine, t);
    // No cross-rank traffic at all.
    EXPECT_EQ(sched.send_total(comm.rank()), 0);
    EXPECT_EQ(sched.recv_total(comm.rank()), 0);
    std::vector<double> src(mine.size()), dst(mine.size(), -1.0);
    for (std::size_t i = 0; i < mine.size(); ++i)
      src[i] = static_cast<double>(mine[i]);
    remap_through(comm, sched, src, dst);
    EXPECT_EQ(src, dst);
  });
}

TEST(Remap, RandomRedistributionsPreserveAllValues) {
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& comm) {
    const GlobalIndex n = 300;
    Rng rng(2024);  // same seed everywhere: identical maps on all ranks
    std::vector<int> old_map(static_cast<size_t>(n)), new_map(
                                                          static_cast<size_t>(n));
    for (auto& p : old_map) p = static_cast<int>(rng.below(P));
    for (auto& p : new_map) p = static_cast<int>(rng.below(P));
    auto old_t = TranslationTable::from_full_map(comm, old_map);
    auto new_t = TranslationTable::from_full_map(comm, new_map);

    auto mine = old_t.owned_globals(comm.rank());
    std::vector<double> old_data(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      old_data[i] = 3.0 + static_cast<double>(mine[i]);

    Schedule sched = build_remap_schedule(comm, mine, new_t);
    std::vector<double> new_data(
        static_cast<size_t>(new_t.owned_count(comm.rank())), -1.0);
    remap_through(comm, sched, old_data, new_data);

    auto new_mine = new_t.owned_globals(comm.rank());
    std::vector<double> expected(new_mine.size());
    for (std::size_t i = 0; i < new_mine.size(); ++i)
      expected[i] = 3.0 + static_cast<double>(new_mine[i]);
    EXPECT_TRUE(ts::spans_equal(new_data, expected, "remapped values"));
  });
}

// The delta-aware remap plan (cross-epoch reuse) must be bitwise identical
// to the cold plan — same blocks, same order — and move data identically.
TEST(Remap, DeltaPlanMatchesColdPlan) {
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& comm) {
    const GlobalIndex n = 200;
    Rng rng(515);
    std::vector<int> old_map(static_cast<size_t>(n));
    for (auto& p : old_map) p = static_cast<int>(rng.below(P));
    std::vector<int> new_map = old_map;
    // Boundary-style move plus some uniform scatter.
    for (std::size_t g = 150; g < new_map.size(); ++g)
      new_map[g] = static_cast<int>(rng.below(P));
    for (auto& p : new_map)
      if (rng.uniform() < 0.05) p = static_cast<int>(rng.below(P));

    auto old_t = TranslationTable::from_full_map(comm, old_map);
    auto new_t = TranslationTable::from_full_map(comm, new_map);
    const OwnerDelta delta = OwnerDelta::compute(old_map, new_map);

    auto mine = old_t.owned_globals(comm.rank());
    const Schedule cold = build_remap_schedule(comm, mine, new_t);
    const Schedule hot = build_remap_schedule_delta(comm, mine, new_t, delta);
    EXPECT_TRUE(ts::schedules_equal(hot, cold));

    std::vector<double> src(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      src[i] = static_cast<double>(mine[i] + 1);
    std::vector<double> via_cold(
        static_cast<size_t>(new_t.owned_count(comm.rank())), -1.0);
    std::vector<double> via_hot(via_cold.size(), -2.0);
    remap_through(comm, cold, src, via_cold);
    remap_through(comm, hot, src, via_hot);
    EXPECT_TRUE(ts::spans_equal(via_hot, via_cold, "remapped data"));
  });
}

TEST(Remap, SameScheduleRemapsMultipleAlignedArrays) {
  // The paper remaps every atom-aligned CHARMM array with one schedule.
  Machine m(3);
  m.run([](Comm& comm) {
    const GlobalIndex n = 60;
    Rng rng(77);
    std::vector<int> old_map(static_cast<size_t>(n)),
        new_map(static_cast<size_t>(n));
    for (auto& p : old_map) p = static_cast<int>(rng.below(3));
    for (auto& p : new_map) p = static_cast<int>(rng.below(3));
    auto old_t = TranslationTable::from_full_map(comm, old_map);
    auto new_t = TranslationTable::from_full_map(comm, new_map);
    auto mine = old_t.owned_globals(comm.rank());

    Schedule sched = build_remap_schedule(comm, mine, new_t);

    for (double scale : {1.0, 2.0, 5.0}) {
      std::vector<double> src(mine.size()), dst(
          static_cast<size_t>(new_t.owned_count(comm.rank())), -1.0);
      for (std::size_t i = 0; i < mine.size(); ++i)
        src[i] = scale * static_cast<double>(mine[i]);
      remap_through(comm, sched, src, dst);
      auto new_mine = new_t.owned_globals(comm.rank());
      for (std::size_t i = 0; i < new_mine.size(); ++i)
        EXPECT_EQ(dst[i], scale * static_cast<double>(new_mine[i]));
    }
  });
}

// ---- Iteration partitioning ----------------------------------------------

TEST(Iteration, OwnerComputesFollowsFirstReference) {
  Machine m(2);
  m.run([](Comm& comm) {
    std::vector<int> map{0, 0, 1, 1};
    auto t = TranslationTable::from_full_map(comm, map);
    // Two iterations: (0,3) and (2,1).
    std::vector<GlobalIndex> refs{0, 3, 2, 1};
    auto assign = owner_computes(comm, t, refs, 2);
    EXPECT_EQ(assign, (std::vector<int>{0, 1}));
  });
}

TEST(Iteration, AlmostOwnerComputesTakesMajority) {
  Machine m(2);
  m.run([](Comm& comm) {
    std::vector<int> map{0, 0, 0, 1, 1, 1};
    auto t = TranslationTable::from_full_map(comm, map);
    // Iteration 0 references {0, 3, 4}: majority on rank 1.
    // Iteration 1 references {1, 2, 5}: majority on rank 0.
    // Iteration 2 references {0, 5, 3}: tie 1-2 -> rank 1 (two refs).
    std::vector<GlobalIndex> refs{0, 3, 4, 1, 2, 5, 0, 5, 3};
    auto assign = almost_owner_computes(comm, t, refs, 3);
    EXPECT_EQ(assign, (std::vector<int>{1, 0, 1}));
  });
}

TEST(Iteration, TieGoesToEarliestReferencedOwner) {
  Machine m(2);
  m.run([](Comm& comm) {
    std::vector<int> map{0, 1};
    auto t = TranslationTable::from_full_map(comm, map);
    // 1-1 ties: first reference wins.
    std::vector<GlobalIndex> refs{0, 1, 1, 0};
    auto assign = almost_owner_computes(comm, t, refs, 2);
    EXPECT_EQ(assign, (std::vector<int>{0, 1}));
  });
}

TEST(Iteration, RemapMovesIterationRecords) {
  Machine m(2);
  m.run([](Comm& comm) {
    // Each rank starts with 3 iterations; send odd global ids to rank 1,
    // even to rank 0.
    std::vector<GlobalIndex> ids;
    std::vector<GlobalIndex> refs;
    for (int k = 0; k < 3; ++k) {
      const GlobalIndex id = comm.rank() * 3 + k;
      ids.push_back(id);
      refs.push_back(id * 10);
      refs.push_back(id * 10 + 1);
    }
    std::vector<int> dest;
    for (GlobalIndex id : ids) dest.push_back(static_cast<int>(id % 2));

    auto result = remap_iterations(comm, dest, refs, 2, ids);
    for (std::size_t i = 0; i < result.iter_ids.size(); ++i) {
      EXPECT_EQ(result.iter_ids[i] % 2, comm.rank());
      EXPECT_EQ(result.refs[i * 2], result.iter_ids[i] * 10);
      EXPECT_EQ(result.refs[i * 2 + 1], result.iter_ids[i] * 10 + 1);
    }
    // All 6 iterations survive somewhere.
    const int total = comm.allreduce_sum(
        static_cast<int>(result.iter_ids.size()));
    EXPECT_EQ(total, 6);
  });
}

TEST(Iteration, RemapValidatesArity) {
  Machine m(1);
  EXPECT_THROW(m.run([](Comm& comm) {
                 std::vector<int> dest{0};
                 std::vector<GlobalIndex> refs{1, 2, 3};  // not 1*arity(2)
                 std::vector<GlobalIndex> ids{0};
                 remap_iterations(comm, dest, refs, 2, ids);
               }),
               Error);
}

}  // namespace
}  // namespace chaos::core
