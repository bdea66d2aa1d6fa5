// Schedule generation tests, including a golden test of the paper's
// Figure 6 worked example and randomized property sweeps over processor
// counts and distributions. Schedules are executed through the reference
// executor (tests/support/reference_executor.hpp), so these tests check
// what the schedules say, independent of the compiled data path.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/chaos.hpp"
#include "support/reference_executor.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

using sim::Comm;
using sim::Machine;
namespace ts = testing_support;

// ---- Figure 6 golden test -------------------------------------------------
//
// The paper's example (converted to 0-based indices): data array y with 10
// elements; proc 0 owns globals 0..4, proc 1 owns globals 5..9. Processor 0
// hashes three indirection arrays:
//   ia = {0, 2, 6, 8, 1}   (paper: 1,3,7,9,2)
//   ib = {0, 4, 6, 7, 1}   (paper: 1,5,7,8,2)
//   ic = {3, 2, 9, 7, 8}   (paper: 4,3,10,8,9)
// Expected off-processor fetch sets (0-based globals):
//   sched_A   (stamp a)    -> {6, 8}        (paper: 7, 9)
//   sched_B   (stamp b)    -> {6, 7}        (paper: 7, 8)
//   inc_schedB(stamp b-a)  -> {7}           (paper: 8)
//   merged    (a+b+c)      -> {6, 8, 7, 9}  (paper: 7, 9, 8, 10)

struct Fig6 {
  TranslationTable table;
  IndexHashTable hash;
  Stamp a = 0, b = 0, c = 0;
  std::vector<GlobalIndex> ia, ib, ic;
};

Fig6 setup_figure6(Comm& comm) {
  std::vector<int> full{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  Fig6 f{TranslationTable::from_full_map(comm, full),
         IndexHashTable(comm.rank() == 0 ? 5 : 5),
         0,
         0,
         0,
         {},
         {},
         {}};
  if (comm.rank() == 0) {
    f.ia = {0, 2, 6, 8, 1};
    f.ib = {0, 4, 6, 7, 1};
    f.ic = {3, 2, 9, 7, 8};
  }
  f.a = f.hash.hash(comm, f.table, f.ia);
  f.b = f.hash.hash(comm, f.table, f.ib);
  f.c = f.hash.hash(comm, f.table, f.ic);
  return f;
}

// The globals fetched by a schedule, from rank 1's send side (send offsets
// + 5 = the 0-based global ids it ships).
std::vector<GlobalIndex> fetched_globals_rank1(const Schedule& s) {
  std::vector<GlobalIndex> out;
  for (const auto& blk : s.send_blocks())
    for (GlobalIndex off : blk.indices) out.push_back(off + 5);
  return out;
}

TEST(Figure6, ScheduleAFetches7And9) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    Schedule s = build_schedule(comm, f.hash, StampExpr::only(f.a));
    if (comm.rank() == 1) {
      EXPECT_EQ(fetched_globals_rank1(s), (std::vector<GlobalIndex>{6, 8}));
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(s.recv_total(0), 2);
      EXPECT_EQ(s.send_total(0), 0);
    }
  });
}

TEST(Figure6, ScheduleBFetches7And8) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    Schedule s = build_schedule(comm, f.hash, StampExpr::only(f.b));
    if (comm.rank() == 1) {
      EXPECT_EQ(fetched_globals_rank1(s), (std::vector<GlobalIndex>{6, 7}));
    }
  });
}

TEST(Figure6, IncrementalScheduleBMinusAFetchesOnly8) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    Schedule s =
        build_schedule(comm, f.hash, StampExpr::incremental(f.b, f.a));
    if (comm.rank() == 1) {
      EXPECT_EQ(fetched_globals_rank1(s), (std::vector<GlobalIndex>{7}));
    }
  });
}

TEST(Figure6, MergedScheduleFetchesAllFour) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    Schedule s =
        build_schedule(comm, f.hash, StampExpr::merged({f.a, f.b, f.c}));
    if (comm.rank() == 1) {
      EXPECT_EQ(fetched_globals_rank1(s),
                (std::vector<GlobalIndex>{6, 8, 7, 9}));
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(s.recv_total(0), 4);
    }
  });
}

TEST(Figure6, TranslatedIndirectionArraysMatchHandComputation) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    if (comm.rank() != 0) return;
    // Owned region is 5 elements; ghosts 6,8,7,9 get slots 5,6,7,8.
    EXPECT_EQ(f.ia, (std::vector<GlobalIndex>{0, 2, 5, 6, 1}));
    EXPECT_EQ(f.ib, (std::vector<GlobalIndex>{0, 4, 5, 7, 1}));
    EXPECT_EQ(f.ic, (std::vector<GlobalIndex>{3, 2, 8, 7, 6}));
  });
}

TEST(Figure6, GatherDeliversExpectedValues) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    Schedule s =
        build_schedule(comm, f.hash, StampExpr::merged({f.a, f.b, f.c}));
    // y[g] = 100 + g on its owner.
    std::vector<double> y(static_cast<size_t>(f.hash.local_extent()), -1.0);
    for (int k = 0; k < 5; ++k)
      y[static_cast<size_t>(k)] = 100.0 + comm.rank() * 5 + k;
    ts::reference_gather<double>(comm, s, y);
    if (comm.rank() == 0) {
      // slots 5..8 hold globals 6,8,7,9
      EXPECT_EQ(y[5], 106.0);
      EXPECT_EQ(y[6], 108.0);
      EXPECT_EQ(y[7], 107.0);
      EXPECT_EQ(y[8], 109.0);
    }
  });
}

// ---- Randomized gather/scatter properties --------------------------------

struct RandomSetup {
  TranslationTable table;
  std::vector<GlobalIndex> my_globals;  // owned, in offset order
};

RandomSetup random_distribution(Comm& comm, GlobalIndex n, int seed) {
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<int> full(static_cast<size_t>(n));
  for (auto& p : full) p = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(comm.size())));
  auto table = TranslationTable::from_full_map(comm, full);
  auto mine = table.owned_globals(comm.rank());
  return RandomSetup{std::move(table), std::move(mine)};
}

class GatherScatterSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GatherScatterSweep, GatherFetchesCorrectValuesEverywhere) {
  const auto [P, n] = GetParam();
  Machine m(P);
  m.run([&, n = n](Comm& comm) {
    auto setup = random_distribution(comm, n, 1234 + P + n);
    IndexHashTable hash(setup.table.owned_count(comm.rank()));
    // Every rank references a random batch of global elements.
    Rng rng(static_cast<std::uint64_t>(77 + comm.rank()));
    std::vector<GlobalIndex> ind(static_cast<size_t>(3 * n / (P + 1) + 5));
    for (auto& g : ind)
      g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
    std::vector<GlobalIndex> original = ind;
    const Stamp s = hash.hash(comm, setup.table, ind);
    Schedule sched = build_schedule(comm, hash, StampExpr::only(s));

    std::vector<double> data(static_cast<size_t>(hash.local_extent()), -1.0);
    for (std::size_t i = 0; i < setup.my_globals.size(); ++i)
      data[i] = 1000.0 + static_cast<double>(setup.my_globals[i]);
    ts::reference_gather<double>(comm, sched, data);

    // Every translated reference now reads the right global value.
    for (std::size_t k = 0; k < ind.size(); ++k)
      EXPECT_EQ(data[static_cast<size_t>(ind[k])],
                1000.0 + static_cast<double>(original[k]))
          << "P=" << P << " ref " << k;
  });
}

TEST_P(GatherScatterSweep, ScatterAddAccumulatesAcrossRanks) {
  const auto [P, n] = GetParam();
  Machine m(P);
  m.run([&, n = n](Comm& comm) {
    auto setup = random_distribution(comm, n, 4321 + P + n);
    IndexHashTable hash(setup.table.owned_count(comm.rank()));
    // Each rank contributes +1 to a random set of *distinct* globals.
    Rng rng(static_cast<std::uint64_t>(55 + comm.rank()));
    std::vector<GlobalIndex> ind;
    for (GlobalIndex g = 0; g < n; ++g)
      if (rng.uniform() < 0.4) ind.push_back(g);
    std::vector<GlobalIndex> original = ind;
    const Stamp s = hash.hash(comm, setup.table, ind);
    Schedule sched = build_schedule(comm, hash, StampExpr::only(s));

    std::vector<double> data(static_cast<size_t>(hash.local_extent()), 0.0);
    for (GlobalIndex i : ind) data[static_cast<size_t>(i)] += 1.0;
    ts::reference_scatter_add<double>(comm, sched, data);

    // Ground truth: how many ranks contributed to each global?
    std::vector<std::uint8_t> mine(static_cast<size_t>(n), 0);
    for (GlobalIndex g : original) mine[static_cast<size_t>(g)] = 1;
    std::vector<std::uint8_t> all = comm.allgatherv<std::uint8_t>(mine);
    for (std::size_t i = 0; i < setup.my_globals.size(); ++i) {
      const GlobalIndex g = setup.my_globals[i];
      double expect = 0;
      for (int r = 0; r < P; ++r)
        expect += all[static_cast<size_t>(r) * static_cast<size_t>(n) +
                      static_cast<size_t>(g)];
      EXPECT_EQ(data[i], expect) << "global " << g;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GatherScatterSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(40, 250)));

TEST(Schedule, MergedEqualsUnionOfIndividualFetches) {
  Machine m(4);
  m.run([](Comm& comm) {
    auto setup = random_distribution(comm, 200, 9);
    IndexHashTable hash(setup.table.owned_count(comm.rank()));
    Rng rng(static_cast<std::uint64_t>(3 + comm.rank()));
    std::vector<GlobalIndex> ia(60), ib(60);
    for (auto& g : ia) g = static_cast<GlobalIndex>(rng.below(200));
    for (auto& g : ib) g = static_cast<GlobalIndex>(rng.below(200));
    const Stamp sa = hash.hash(comm, setup.table, ia);
    const Stamp sb = hash.hash(comm, setup.table, ib);

    Schedule merged =
        build_schedule(comm, hash, StampExpr::merged({sa, sb}));
    Schedule only_a = build_schedule(comm, hash, StampExpr::only(sa));
    Schedule inc_b =
        build_schedule(comm, hash, StampExpr::incremental(sb, sa));

    // Merged fetch total == sched_A total + incremental total (union).
    EXPECT_EQ(merged.recv_total(comm.rank()),
              only_a.recv_total(comm.rank()) + inc_b.recv_total(comm.rank()));
    // And the merged gather is never larger than two separate schedules.
    Schedule only_b = build_schedule(comm, hash, StampExpr::only(sb));
    EXPECT_LE(merged.recv_total(comm.rank()),
              only_a.recv_total(comm.rank()) +
                  only_b.recv_total(comm.rank()));
  });
}

TEST(Schedule, IncrementalThenBaseCoversMergedGather) {
  // Gathering with sched_A then inc_schedB must deliver every element that
  // the merged schedule would — the paper's reuse pattern for multi-phase
  // loops (Figure 5).
  Machine m(3);
  m.run([](Comm& comm) {
    auto setup = random_distribution(comm, 120, 17);
    IndexHashTable hash(setup.table.owned_count(comm.rank()));
    Rng rng(static_cast<std::uint64_t>(21 + comm.rank()));
    std::vector<GlobalIndex> ia(40), ib(40);
    for (auto& g : ia) g = static_cast<GlobalIndex>(rng.below(120));
    for (auto& g : ib) g = static_cast<GlobalIndex>(rng.below(120));
    std::vector<GlobalIndex> orig_ia = ia, orig_ib = ib;
    const Stamp sa = hash.hash(comm, setup.table, ia);
    const Stamp sb = hash.hash(comm, setup.table, ib);

    Schedule sched_a = build_schedule(comm, hash, StampExpr::only(sa));
    Schedule inc_b = build_schedule(comm, hash, StampExpr::incremental(sb, sa));

    std::vector<double> data(static_cast<size_t>(hash.local_extent()), -1.0);
    for (std::size_t i = 0; i < setup.my_globals.size(); ++i)
      data[i] = 7.0 * static_cast<double>(setup.my_globals[i]);
    ts::reference_gather<double>(comm, sched_a, data);
    ts::reference_gather<double>(comm, inc_b, data);

    for (std::size_t k = 0; k < ib.size(); ++k)
      EXPECT_EQ(data[static_cast<size_t>(ib[k])],
                7.0 * static_cast<double>(orig_ib[k]));
    for (std::size_t k = 0; k < ia.size(); ++k)
      EXPECT_EQ(data[static_cast<size_t>(ia[k])],
                7.0 * static_cast<double>(orig_ia[k]));
  });
}

TEST(Schedule, SizesMatchBlockContents) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    Schedule s = build_schedule(comm, f.hash, StampExpr::only(f.a));
    if (comm.rank() == 0) {
      auto fetch = s.fetch_sizes();
      ASSERT_EQ(fetch.size(), 1u);
      EXPECT_EQ(fetch[0].first, 1);
      EXPECT_EQ(fetch[0].second, 2);
      EXPECT_TRUE(s.send_sizes().empty());
    } else {
      auto send = s.send_sizes();
      ASSERT_EQ(send.size(), 1u);
      EXPECT_EQ(send[0].first, 0);
      EXPECT_EQ(send[0].second, 2);
    }
  });
}

TEST(Schedule, ScatterReplacePropagatesWrites) {
  // Rank that referenced a ghost updates it; scatter pushes the new value
  // back to the owner.
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    Schedule s = build_schedule(comm, f.hash, StampExpr::only(f.a));
    std::vector<double> y(static_cast<size_t>(f.hash.local_extent()), 0.0);
    if (comm.rank() == 0) {
      y[5] = 42.0;  // ghost slot of global 6
      y[6] = 43.0;  // ghost slot of global 8
    }
    ts::reference_scatter<double>(comm, s, y);
    if (comm.rank() == 1) {
      EXPECT_EQ(y[1], 42.0);  // global 6 = offset 1 on rank 1
      EXPECT_EQ(y[3], 43.0);  // global 8 = offset 3
    }
  });
}

TEST(Schedule, EmptyStampProducesEmptySchedule) {
  Machine m(2);
  m.run([](Comm& comm) {
    Fig6 f = setup_figure6(comm);
    // A stamp that matches nothing off-processor: hash an owned-only array.
    std::vector<GlobalIndex> own;
    if (comm.rank() == 0) own = {0, 1};
    const Stamp s = f.hash.hash(comm, f.table, own);
    Schedule sched = build_schedule(comm, f.hash, StampExpr::only(s));
    EXPECT_EQ(sched.recv_total(comm.rank()), 0);
    EXPECT_EQ(sched.send_total(comm.rank()), 0);
    // Executing an empty schedule is a no-op.
    std::vector<double> y(static_cast<size_t>(f.hash.local_extent()), 5.0);
    ts::reference_gather<double>(comm, sched, y);
    for (double v : y) EXPECT_EQ(v, 5.0);
  });
}

}  // namespace
}  // namespace chaos::core
