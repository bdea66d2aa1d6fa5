// Seeded-table oracle: ScheduleRegistry::seed_from rebuilds the successor
// epoch's hash table by one dense first-encounter replay of the prior
// epoch's cached loops, keyed by the prior epoch's local indices, and
// builds the open-addressing index once at the end. The table it leaves
// must be exactly the one a cold replay of the same plans builds
// (ScheduleRegistry::plan on a fresh registry, loop by loop in first-plan
// order):
//   - entries in order, each with its global, Home, local index and stamps,
//   - the ghost count and the insert / hit counts,
//   - the footprint (entry storage and index at the capacities entering
//     one reference at a time reaches),
//   - find(g) for every global,
//   - each loop's localized references, extent and schedule.
// One slot re-inspection afterwards probes the seeded index (rehash), which
// catches an index that was never built.
//
// Scenarios: several loops where later loops reference rows an earlier loop
// seeded, a prior epoch that was re-inspected (dead entries, appended
// entries), replicated and paged translation tables, and a dynamic delta
// whose deletion drops the middle loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/owner_delta.hpp"
#include "runtime/schedule_registry.hpp"
#include "support/equivalence.hpp"
#include "support/seeds.hpp"
#include "util/rng.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using lang::Distribution;
using lang::IndirectionArray;
using runtime::ScheduleRegistry;
using sim::Comm;
using sim::Machine;
namespace ts = testing_support;

Distribution make_dist(Comm& comm, const std::vector<int>& map, bool paged) {
  return paged ? Distribution::irregular_paged(comm, map)
               : Distribution::irregular(comm, map);
}

/// Seeded vs cold registry over the loops `inds` (dropped loops excluded),
/// for globals [0, n). Purely local: a failure returns from here only, so
/// every rank keeps running the same collective sequence.
void expect_same(const ScheduleRegistry& seeded, const ScheduleRegistry& cold,
                 const std::vector<const IndirectionArray*>& inds,
                 GlobalIndex n, const std::string& when) {
  SCOPED_TRACE(when);
  ASSERT_NE(seeded.hash_table(), nullptr);
  ASSERT_NE(cold.hash_table(), nullptr);
  const core::IndexHashTable& s = *seeded.hash_table();
  const core::IndexHashTable& c = *cold.hash_table();

  ASSERT_EQ(s.entries().size(), c.entries().size());
  for (std::size_t i = 0; i < s.entries().size(); ++i) {
    const auto& a = s.entries()[i];
    const auto& b = c.entries()[i];
    if (a.global != b.global || a.home != b.home ||
        a.local_index != b.local_index || a.stamps != b.stamps) {
      ADD_FAILURE() << "entry " << i << ": global " << a.global << " vs "
                    << b.global << ", local " << a.local_index << " vs "
                    << b.local_index << ", stamps " << a.stamps << " vs "
                    << b.stamps;
      return;
    }
  }
  EXPECT_EQ(s.ghost_count(), c.ghost_count());
  EXPECT_EQ(s.stats().inserts, c.stats().inserts);
  EXPECT_EQ(s.stats().hits, c.stats().hits);
  EXPECT_EQ(s.footprint_bytes(), c.footprint_bytes());
  for (GlobalIndex g = 0; g < n; ++g) {
    const core::IndexHashTable::Entry* a = s.find(g);
    const core::IndexHashTable::Entry* b = c.find(g);
    ASSERT_EQ(a == nullptr, b == nullptr) << "find(" << g << ")";
    if (a != nullptr) {
      ASSERT_EQ(a - s.entries().data(), b - c.entries().data())
          << "find(" << g << ")";
    }
  }

  for (const IndirectionArray* ind : inds) {
    const lang::LoopPlan* a = seeded.find(ind->id());
    const lang::LoopPlan* b = cold.find(ind->id());
    ASSERT_TRUE(a != nullptr && b != nullptr);
    EXPECT_EQ(a->stamp, b->stamp);
    EXPECT_EQ(a->local_extent, b->local_extent);
    EXPECT_TRUE(ts::spans_equal(a->local_refs, b->local_refs, "local refs"));
    EXPECT_TRUE(ts::schedules_equal(a->schedule, b->schedule));
  }
}

/// Change at most a quarter of `ind`'s slots (the same slots on every
/// rank), so the next plan() takes the slot-level re-inspection path.
void change_slots(IndirectionArray& ind, Rng& rng, GlobalIndex n,
                  GlobalIndex avoid) {
  std::vector<GlobalIndex> values(ind.values().begin(), ind.values().end());
  const std::size_t k = values.size() / 4;
  for (std::size_t i = 0; i < k; ++i) {
    const auto slot = static_cast<std::size_t>(rng.below(values.size()));
    auto g = static_cast<GlobalIndex>(
        rng.below(static_cast<std::uint64_t>(n)));
    if (g == avoid) g = (g + 1) % n;
    values[slot] = g;
  }
  ind.assign(std::move(values));
}

/// One scenario: `nloops` loops planned on a random irregular map, the
/// first re-inspected through a slot delta when `reinspect`, a repartition
/// (or, when `dynamic`, the deletion of one element only the middle loop
/// references), seed_from vs a cold replay, then one slot re-inspection.
void run_oracle(std::uint64_t seed, bool paged, bool dynamic) {
  Rng shape(seed);
  const int P = 2 + static_cast<int>(shape.below(3));
  const GlobalIndex n = 48 + static_cast<GlobalIndex>(shape.below(200));
  const int nloops = 3 + static_cast<int>(shape.below(2));
  const bool reinspect = shape.below(2) == 1;
  const int mode = static_cast<int>(shape.below(3));

  Machine m(P);
  m.run([&](Comm& comm) {
    // Machine-wide choices come from an identically seeded rng, reference
    // content from a rank-salted one.
    Rng global_rng(seed * 31 + 7);
    Rng ref_rng(seed * 7919 + 101 +
                static_cast<std::uint64_t>(comm.rank()) * 65537);
    std::vector<int> map0(static_cast<std::size_t>(n));
    for (int& p : map0) p = static_cast<int>(global_rng.below(P));
    const Distribution d0 = make_dist(comm, map0, paged);

    // The element a dynamic delta deletes: only the middle loop, on rank
    // 0, references it.
    const GlobalIndex doomed = dynamic ? n / 2 : -1;
    const auto draw = [&]() {
      auto g = static_cast<GlobalIndex>(
          ref_rng.below(static_cast<std::uint64_t>(n)));
      return g == doomed ? (g + 1) % n : g;
    };

    // Loop 0 draws from the whole space; later loops take about half their
    // references from loop 0's, so they meet rows loop 0 seeded.
    std::vector<IndirectionArray> inds(static_cast<std::size_t>(nloops));
    std::vector<GlobalIndex> base(1 + ref_rng.below(80));
    for (GlobalIndex& g : base) g = draw();
    inds[0].assign(base);
    for (int l = 1; l < nloops; ++l) {
      std::vector<GlobalIndex> refs(ref_rng.below(60));
      for (GlobalIndex& g : refs)
        g = ref_rng.below(2) == 0 ? base[ref_rng.below(base.size())] : draw();
      if (dynamic && l == 1 && comm.rank() == 0) refs.push_back(doomed);
      inds[static_cast<std::size_t>(l)].assign(std::move(refs));
    }

    ScheduleRegistry prior;
    for (const IndirectionArray& ind : inds) prior.plan(comm, d0, ind);
    if (reinspect) {
      change_slots(inds[0], ref_rng, n, doomed);
      prior.plan(comm, d0, inds[0]);
      EXPECT_EQ(prior.stats().incremental_rehashes, 1u);
    }

    std::vector<int> map1 = map0;
    if (dynamic) {
      map1[static_cast<std::size_t>(doomed)] = -1;
    } else if (mode == 1) {
      // Tail shift: a suffix changes owner.
      for (auto g = static_cast<std::size_t>(n - n / 4); g < map1.size(); ++g)
        map1[g] = static_cast<int>(global_rng.below(P));
    } else if (mode == 2) {
      // Scatter: most offsets move.
      for (int& p : map1)
        if (global_rng.uniform() < 0.3)
          p = static_cast<int>(global_rng.below(P));
    }  // mode 0: identical map, every Home carried
    const core::OwnerDelta delta =
        dynamic ? core::OwnerDelta::compute_dynamic(map0, map1)
                : core::OwnerDelta::compute(map0, map1);
    const Distribution d1 = Distribution::patched(comm, d0, map1, delta);

    ScheduleRegistry seeded;
    seeded.seed_from(comm, d1, prior, delta);
    ScheduleRegistry cold;
    std::vector<const IndirectionArray*> live;
    for (int l = 0; l < nloops; ++l) {
      if (dynamic && l == 1) continue;
      live.push_back(&inds[static_cast<std::size_t>(l)]);
      cold.plan(comm, d1, *live.back());
    }
    if (dynamic) {
      EXPECT_EQ(seeded.stats().dropped_plans, 1u);
      EXPECT_EQ(seeded.find(inds[1].id()), nullptr);
    }
    expect_same(seeded, cold, live, n, "after seed_from");

    // One slot re-inspection of the last live loop: rehash probes the
    // seeded index for every changed slot's old and new global.
    IndirectionArray& last = inds[static_cast<std::size_t>(nloops - 1)];
    change_slots(last, ref_rng, n, doomed);
    seeded.plan(comm, d1, last);
    cold.plan(comm, d1, last);
    EXPECT_EQ(seeded.stats().incremental_rehashes, 1u);
    EXPECT_EQ(cold.stats().incremental_rehashes, 1u);
    expect_same(seeded, cold, live, n, "after a slot re-inspection");
  });
}

TEST(SeededTableOracle, RandomizedSeedMatchesColdReplay) {
  const std::uint64_t seeds = ts::seed_count(40, "CHAOS_REUSE_SEEDS");
  const std::uint64_t base = ts::env_seed_u64("CHAOS_REUSE_SEED_BASE", 1);
  for (std::uint64_t s = base; s < base + seeds; ++s) {
    for (const bool paged : {false, true}) {
      SCOPED_TRACE((paged ? "paged seed=" : "seed=") + std::to_string(s));
      run_oracle(s, paged, /*dynamic=*/false);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(SeededTableOracle, DynamicDeltaDropsMiddleLoop) {
  const std::uint64_t seeds = ts::seed_count(12, "CHAOS_REUSE_PAGED_SEEDS");
  const std::uint64_t base = ts::env_seed_u64("CHAOS_REUSE_SEED_BASE", 1);
  for (std::uint64_t s = base; s < base + seeds; ++s) {
    for (const bool paged : {false, true}) {
      SCOPED_TRACE((paged ? "paged seed=" : "seed=") + std::to_string(s));
      run_oracle(s, paged, /*dynamic=*/true);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace chaos
