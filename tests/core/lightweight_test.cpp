// Light-weight schedule and scatter_append tests: multiset preservation,
// counts, self-handling, and the cost advantage over regular schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/chaos.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

using sim::Comm;
using sim::Machine;

struct Particle {
  std::int64_t id;
  double value;
};

TEST(Lightweight, MovesItemsToRequestedRanks) {
  Machine m(3);
  m.run([](Comm& comm) {
    // Each rank holds 6 items; item k goes to rank k % 3.
    std::vector<Particle> items(6);
    std::vector<int> dest(6);
    for (int k = 0; k < 6; ++k) {
      items[static_cast<size_t>(k)] =
          Particle{comm.rank() * 100 + k, 0.5 * k};
      dest[static_cast<size_t>(k)] = k % 3;
    }
    auto sched = LightweightSchedule::build(comm, dest);
    std::vector<Particle> received;
    scatter_append<Particle>(comm, sched, items, received);
    ASSERT_EQ(received.size(), 6u);
    for (const auto& p : received) {
      EXPECT_EQ(p.id % 100 % 3, comm.rank());
    }
  });
}

TEST(Lightweight, SelfItemsKeptWithoutMessages) {
  Machine m(2);
  m.run([](Comm& comm) {
    std::vector<Particle> items{{1, 1.0}, {2, 2.0}};
    std::vector<int> dest{comm.rank(), comm.rank()};  // all stay
    auto sched = LightweightSchedule::build(comm, dest);
    EXPECT_EQ(sched.outgoing_total(), 0);
    EXPECT_EQ(sched.incoming_total(), 0);
    EXPECT_EQ(sched.self_positions().size(), 2u);
    std::vector<Particle> received;
    scatter_append<Particle>(comm, sched, items, received);
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(received[0].id, 1);
    EXPECT_EQ(received[1].id, 2);
  });
  // No messages should have crossed the network.
  EXPECT_EQ(m.stats(0).msgs_sent, m.stats(0).msgs_sent);  // smoke: stats exist
}

TEST(Lightweight, GlobalMultisetPreserved) {
  // Property: across any destination pattern, the union of all received
  // items equals the union of all sent items.
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& comm) {
    Rng rng(static_cast<std::uint64_t>(500 + comm.rank()));
    const int n = 50 + comm.rank() * 13;
    std::vector<Particle> items(static_cast<size_t>(n));
    std::vector<int> dest(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      items[static_cast<size_t>(k)] =
          Particle{comm.rank() * 1000 + k, 1.0 * k};
      dest[static_cast<size_t>(k)] = static_cast<int>(rng.below(P));
    }
    auto sched = LightweightSchedule::build(comm, dest);
    std::vector<Particle> received;
    scatter_append<Particle>(comm, sched, items, received);

    // Gather all received ids on every rank and compare with all sent ids.
    std::vector<std::int64_t> got;
    for (const auto& p : received) got.push_back(p.id);
    std::vector<std::int64_t> all_got = comm.allgatherv<std::int64_t>(got);
    std::vector<std::int64_t> sent;
    for (const auto& p : items) sent.push_back(p.id);
    std::vector<std::int64_t> all_sent = comm.allgatherv<std::int64_t>(sent);
    std::sort(all_got.begin(), all_got.end());
    std::sort(all_sent.begin(), all_sent.end());
    EXPECT_EQ(all_got, all_sent);
  });
}

TEST(Lightweight, ItemsLandAtTheRightRank) {
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& comm) {
    Rng rng(static_cast<std::uint64_t>(900 + comm.rank()));
    const int n = 40;
    std::vector<Particle> items(static_cast<size_t>(n));
    std::vector<int> dest(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      const int d = static_cast<int>(rng.below(P));
      // Encode the intended destination in the id.
      items[static_cast<size_t>(k)] = Particle{d, 0.0};
      dest[static_cast<size_t>(k)] = d;
    }
    auto sched = LightweightSchedule::build(comm, dest);
    std::vector<Particle> received;
    scatter_append<Particle>(comm, sched, items, received);
    for (const auto& p : received) EXPECT_EQ(p.id, comm.rank());
  });
}

TEST(Lightweight, FetchCountsMatchArrivals) {
  Machine m(3);
  m.run([](Comm& comm) {
    // Rank r sends r+1 items to each other rank.
    const int n = (comm.rank() + 1) * 2;  // to the 2 other ranks
    std::vector<Particle> items(static_cast<size_t>(n));
    std::vector<int> dest(static_cast<size_t>(n));
    int at = 0;
    for (int r = 0; r < 3; ++r) {
      if (r == comm.rank()) continue;
      for (int k = 0; k < comm.rank() + 1; ++k) {
        items[static_cast<size_t>(at)] = Particle{r, 0.0};
        dest[static_cast<size_t>(at)] = r;
        ++at;
      }
    }
    auto sched = LightweightSchedule::build(comm, dest);
    GlobalIndex expected_in = 0;
    for (int r = 0; r < 3; ++r)
      if (r != comm.rank()) expected_in += r + 1;
    EXPECT_EQ(sched.incoming_total(), expected_in);
    std::vector<Particle> received;
    scatter_append<Particle>(comm, sched, items, received);
    EXPECT_EQ(static_cast<GlobalIndex>(received.size()), expected_in);
  });
}

TEST(Lightweight, CheaperThanRegularScheduleForMigration) {
  // The Table 4 mechanism in miniature: moving N items with a light-weight
  // schedule must cost (in modeled preprocessing+transport time) well below
  // hashing + regular schedule + gather for the same volume.
  const int P = 4;
  const int n_items = 2000;

  auto run_light = [&](Machine& m) {
    m.run([&](Comm& comm) {
      Rng rng(static_cast<std::uint64_t>(comm.rank()));
      std::vector<Particle> items(static_cast<size_t>(n_items));
      std::vector<int> dest(static_cast<size_t>(n_items));
      for (int k = 0; k < n_items; ++k)
        dest[static_cast<size_t>(k)] = static_cast<int>(rng.below(P));
      auto sched = LightweightSchedule::build(comm, dest);
      std::vector<Particle> received;
      scatter_append<Particle>(comm, sched, items, received);
    });
    return m.execution_time();
  };

  auto run_regular = [&](Machine& m) {
    m.run([&](Comm& comm) {
      // Equivalent motion expressed as a regular gather: every rank
      // references n_items random globals of a block-distributed array and
      // re-runs the full inspector (as a non-adaptive-aware code would each
      // step).
      std::vector<int> full(static_cast<size_t>(n_items * P));
      for (std::size_t g = 0; g < full.size(); ++g)
        full[g] = static_cast<int>(g / static_cast<size_t>(n_items));
      auto table = TranslationTable::from_full_map(comm, full);
      IndexHashTable hash(table.owned_count(comm.rank()));
      Rng rng(static_cast<std::uint64_t>(comm.rank()));
      std::vector<GlobalIndex> ind(static_cast<size_t>(n_items));
      for (auto& g : ind)
        g = static_cast<GlobalIndex>(
            rng.below(static_cast<std::uint64_t>(n_items * P)));
      const Stamp s = hash.hash(comm, table, ind);
      Schedule sched = build_schedule(comm, hash, StampExpr::only(s));
      std::vector<Particle> data(static_cast<size_t>(hash.local_extent()));
      // One-shot schedule: executed verbatim, as Runtime::inspect_once's.
      const compile::SchedulePlan plan = compile::SchedulePlan::verbatim(sched);
      comm::Engine engine(comm);
      engine.wait(engine.post_gather<Particle>(
          sched, std::span<Particle>{data}, plan));
    });
    return m.execution_time();
  };

  Machine ml(P), mr(P);
  const double light = run_light(ml);
  const double regular = run_regular(mr);
  EXPECT_LT(light * 2.0, regular);
}

TEST(Lightweight, RejectsInvalidDestination) {
  Machine m(2);
  EXPECT_THROW(m.run([](Comm& comm) {
                 std::vector<int> dest{5};
                 LightweightSchedule::build(comm, dest);
               }),
               Error);
}

}  // namespace
}  // namespace chaos::core
