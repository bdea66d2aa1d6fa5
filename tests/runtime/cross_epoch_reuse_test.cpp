// Cross-epoch schedule reuse: randomized full-rebuild equivalence suite.
//
// The reuse machinery (TranslationTable::patched, ScheduleRegistry::
// seed_from, build_remap_schedule_delta) is aliasing-heavy, correctness-
// critical code, so its headline test is a property: for seeded random
// meshes and random repartition sequences, a Runtime with cross-epoch
// reuse enabled must be *element-for-element equivalent* to a Runtime that
// rebuilds everything cold. Two arms run in lockstep over the same comm:
//
//   hot   repartition() patches tables, seeds registries, delta-migrates
//   cold  set_cross_epoch_reuse(false): from-scratch tables, empty
//         registries, full remap translation
//
// After every epoch the suite asserts
//   - patched translation tables bitwise-equal to cold-built ones,
//   - localized refs / schedules / extents bitwise-equal whenever no
//     un-inspected indirection churn was carried across a repartition
//     (the one case where ghost numbering legitimately diverges: the hot
//     arm seeds from a stale plan and keeps dead slots, exactly like the
//     paper's within-epoch clear-stamp behavior),
//   - executor results (gather / scatter_add / remap / migrate) equal in
//     every case, using integer-valued payloads so combining order cannot
//     introduce FP noise,
//   - the hot arm never performs more translations than the cold arm.
//
// Seed counts come from the shared `--seeds=N` knob, then the historical
// env overrides the CI stress label (ctest -L stress) sets to run extra
// random seeds under ASan+UBSan:
//   CHAOS_REUSE_SEEDS=10 CHAOS_REUSE_SEED_BASE=1000
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/equivalence.hpp"
#include "support/seeds.hpp"
#include "util/rng.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using sim::Comm;
using sim::Machine;
namespace ts = testing_support;

using ts::env_seed_u64;

/// One randomized scenario: a random mesh, 1..3 irregular loops, 2..4
/// repartition rounds with varied stability regimes, occasional
/// indirection-array churn.
void run_equivalence_scenario(std::uint64_t seed, bool paged) {
  Rng shape_rng(seed);
  const int P = 2 + static_cast<int>(shape_rng.below(3));
  const GlobalIndex n = 40 + static_cast<GlobalIndex>(shape_rng.below(160));
  const int nloops = 1 + static_cast<int>(shape_rng.below(3));
  const int rounds = 2 + static_cast<int>(shape_rng.below(3));

  Machine m(P);
  m.run([&](Comm& comm) {
    Runtime hot(comm);
    Runtime cold(comm);
    cold.set_cross_epoch_reuse(false);

    // Identical initial irregular map on every rank.
    Rng map_rng(seed * 1000003 + 17);
    std::vector<int> map(static_cast<std::size_t>(n));
    for (int& p : map) p = static_cast<int>(map_rng.below(P));
    DistHandle dh = paged ? hot.irregular_paged(map) : hot.irregular(map);
    DistHandle dc = paged ? cold.irregular_paged(map) : cold.irregular(map);

    // Machine-wide decisions (mutation modes, new maps) come from a rng
    // every rank seeds identically; per-rank reference content comes from
    // a rank-salted rng. Each indirection array is shared by both arms, so
    // ids and modification records agree by construction.
    Rng global_rng(seed * 31 + 7);
    Rng ref_rng(seed * 7919 + 101 +
                static_cast<std::uint64_t>(comm.rank()) * 65537);
    auto random_refs = [&]() {
      std::vector<GlobalIndex> refs(ref_rng.below(60));  // sometimes empty
      for (GlobalIndex& g : refs)
        g = static_cast<GlobalIndex>(
            ref_rng.below(static_cast<std::uint64_t>(n)));
      return refs;
    };

    std::vector<lang::IndirectionArray> inds(static_cast<std::size_t>(nloops));
    for (auto& ind : inds) ind.assign(random_refs());
    std::vector<LoopHandle> lh(inds.size()), lc(inds.size());
    std::vector<ScheduleHandle> sh(inds.size()), sc(inds.size());
    const auto inspect_all = [&]() {
      for (std::size_t l = 0; l < inds.size(); ++l) {
        lh[l] = hot.bind(dh, inds[l]);
        sh[l] = hot.inspect(lh[l]);
        lc[l] = cold.bind(dc, inds[l]);
        sc[l] = cold.inspect(lc[l]);
      }
    };

    // True until an indirection array is mutated and *not* re-inspected
    // before a repartition: from then on the hot arm carries stale-plan
    // seeds (dead ghost slots), and only executor results are comparable.
    bool structural = true;

    // All checks are non-fatal: every rank must keep executing the same
    // collective sequence even after a mismatch, or the machine deadlocks.
    // Per-element comparisons report only the first divergence.
    const auto first_mismatch = [](std::span<const double> a,
                                   std::span<const double> b,
                                   const std::string& what) {
      EXPECT_EQ(a.size(), b.size()) << what;
      for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        if (a[i] != b[i]) {
          ADD_FAILURE() << what << ": first mismatch at [" << i << "]: "
                        << a[i] << " vs " << b[i];
          return;
        }
    };

    const auto verify = [&]() {
      EXPECT_TRUE(
          ts::tables_equal(hot.dist(dh).table(), cold.dist(dc).table()));
      EXPECT_EQ(hot.owned_count(dh), cold.owned_count(dc));
      const std::vector<GlobalIndex> mine = hot.owned_globals(dh);
      if (structural) {
        EXPECT_EQ(hot.local_extent(dh), cold.local_extent(dc));
        for (std::size_t l = 0; l < inds.size(); ++l) {
          EXPECT_TRUE(ts::spans_equal(hot.local_refs(lh[l]),
                                      cold.local_refs(lc[l]),
                                      "localized refs"));
          EXPECT_TRUE(
              ts::schedules_equal(hot.schedule(sh[l]), cold.schedule(sc[l])));
          EXPECT_EQ(hot.extent(sh[l]), cold.extent(sc[l]));
        }
      }

      // Executor equivalence, loop by loop.
      const GlobalIndex owned = hot.owned_count(dh);
      for (std::size_t l = 0; l < inds.size(); ++l) {
        const auto eh = static_cast<std::size_t>(hot.extent(sh[l]));
        const auto ec = static_cast<std::size_t>(cold.extent(sc[l]));
        std::vector<double> xh(eh, -1.0), xc(ec, -1.0);
        for (GlobalIndex i = 0; i < owned; ++i) {
          const double v =
              static_cast<double>(mine[static_cast<std::size_t>(i)] * 3 + 1);
          xh[static_cast<std::size_t>(i)] = v;
          xc[static_cast<std::size_t>(i)] = v;
        }
        hot.gather<double>(sh[l], std::span<double>{xh});
        cold.gather<double>(sc[l], std::span<double>{xc});
        const auto rh = hot.local_refs(lh[l]);
        const auto rc = cold.local_refs(lc[l]);
        EXPECT_EQ(rh.size(), rc.size());
        if (rh.size() == rc.size()) {
          std::vector<double> vh(rh.size()), vc(rc.size());
          for (std::size_t k = 0; k < rh.size(); ++k) {
            vh[k] = xh[static_cast<std::size_t>(rh[k])];
            vc[k] = xc[static_cast<std::size_t>(rc[k])];
          }
          first_mismatch(vh, vc,
                         "gathered values of loop " + std::to_string(l));
        }

        std::vector<double> ah(eh, 0.0), ac(ec, 0.0);
        for (std::size_t k = 0; k < rh.size(); ++k)
          ah[static_cast<std::size_t>(rh[k])] += static_cast<double>(k + 1);
        for (std::size_t k = 0; k < rc.size(); ++k)
          ac[static_cast<std::size_t>(rc[k])] += static_cast<double>(k + 1);
        hot.scatter_add<double>(sh[l], std::span<double>{ah});
        cold.scatter_add<double>(sc[l], std::span<double>{ac});
        first_mismatch(
            std::span<const double>{ah.data(), static_cast<std::size_t>(owned)},
            std::span<const double>{ac.data(), static_cast<std::size_t>(owned)},
            "scatter_add owned region of loop " + std::to_string(l));
      }
    };

    inspect_all();
    verify();

    for (int round = 0; round < rounds; ++round) {
      // Occasionally mutate one indirection array (every rank regenerates
      // its share). Half the time it is re-inspected before the
      // repartition — the common adaptive flow, structural equivalence
      // preserved; otherwise the stale plan crosses the epoch boundary.
      if (global_rng.uniform() < 0.4) {
        const auto l = static_cast<std::size_t>(
            global_rng.below(static_cast<std::uint64_t>(nloops)));
        inds[l].assign(random_refs());
        if (global_rng.uniform() < 0.5) {
          inspect_all();
          verify();
        } else {
          structural = false;
        }
      }

      // New map under a round-dependent stability regime.
      std::vector<int> next = map;
      const double mode = global_rng.uniform();
      if (mode < 0.15) {
        // Identical map: zero moves, everything carries forward.
      } else if (mode < 0.55) {
        // Tail shift: reassign a suffix (boundary-style adaptation; most
        // processors keep their offset sequences -> high home stability).
        const GlobalIndex cut =
            n - static_cast<GlobalIndex>(
                    global_rng.below(static_cast<std::uint64_t>(n / 4 + 1)));
        for (GlobalIndex g = cut; g < n; ++g)
          next[static_cast<std::size_t>(g)] =
              static_cast<int>(global_rng.below(P));
      } else if (mode < 0.8) {
        // Pair decant: one processor sheds ~30% of its elements to another.
        const int a = static_cast<int>(global_rng.below(P));
        const int b = static_cast<int>(global_rng.below(P));
        for (int& p : next)
          if (p == a && global_rng.uniform() < 0.3) p = b;
      } else {
        // Uniform scatter: destabilizes nearly every offset — the reuse
        // path must degrade to a (still equivalent) near-cold rebuild.
        for (int& p : next)
          if (global_rng.uniform() < 0.15)
            p = static_cast<int>(global_rng.below(P));
      }

      const DistHandle ndh = hot.repartition(dh, std::span<const int>(next));
      const DistHandle ndc = cold.repartition(dc, std::span<const int>(next));

      // Remap planning and execution: the delta plan must equal the cold
      // plan bitwise and move the data identically.
      const ScheduleHandle rmh = hot.plan_remap(dh, ndh);
      const ScheduleHandle rmc = cold.plan_remap(dc, ndc);
      EXPECT_TRUE(ts::schedules_equal(hot.schedule(rmh), cold.schedule(rmc)));
      {
        const std::vector<GlobalIndex> mine_old = hot.owned_globals(dh);
        std::vector<double> src(mine_old.size());
        for (std::size_t i = 0; i < src.size(); ++i)
          src[i] = static_cast<double>(mine_old[i] * 7 + round);
        const std::vector<double> dst_hot =
            hot.remap<double>(rmh, std::span<const double>{src});
        const std::vector<double> dst_cold =
            cold.remap<double>(rmc, std::span<const double>{src});
        EXPECT_TRUE(ts::spans_equal(dst_hot, dst_cold, "remapped array"));
      }

      hot.retire(dh);
      cold.retire(dc);
      dh = ndh;
      dc = ndc;
      map = std::move(next);

      inspect_all();
      verify();

      // While all carried plans were current at the repartition, reuse
      // never translates more than a cold rebuild. (A stale plan crossing
      // the boundary legitimately pays for its old refs at seed time and
      // its new refs at re-inspection, so the bound only holds in the
      // structural regime.)
      if (structural) {
        const std::uint64_t hot_translations =
            hot.hash_stats(dh).translations +
            hot.registry_stats(dh).seed_translations;
        const std::uint64_t cold_translations =
            cold.hash_stats(dc).translations;
        EXPECT_LE(hot_translations, cold_translations);
      }

      // Light-weight migration equivalence (rank-salted payloads).
      {
        Rng item_rng(seed * 13 + static_cast<std::uint64_t>(comm.rank()) * 7 +
                     static_cast<std::uint64_t>(round));
        std::vector<long long> items(item_rng.below(20));
        std::vector<int> dest(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
          items[i] = comm.rank() * 1000 + static_cast<long long>(i);
          dest[i] = static_cast<int>(item_rng.below(P));
        }
        std::vector<long long> out_hot, out_cold;
        hot.migrate<long long>(dest, items, out_hot);
        cold.migrate<long long>(dest, items, out_cold);
        EXPECT_TRUE(ts::spans_equal(out_hot, out_cold, "migrated items"));
      }
    }
  });
}

// ---- deterministic anchor cases --------------------------------------------

// Figure-6 mesh, one boundary move: global 9 leaves proc 1 for proc 0. All
// other elements keep (proc, offset), so the seeded epoch must carry every
// translation forward (zero re-translations) and keep the loop schedule by
// patching its recv side only.
TEST(CrossEpochReuse, TailMoveCarriesTranslationsAndPatchesSchedule) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime hot(comm);
    Runtime cold(comm);
    cold.set_cross_epoch_reuse(false);

    const std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    DistHandle dh = hot.irregular(map);
    DistHandle dc = cold.irregular(map);

    lang::IndirectionArray ind;
    if (comm.rank() == 0) ind.assign({0, 2, 6, 8, 1});
    LoopHandle lh = hot.bind(dh, ind);
    LoopHandle lc = cold.bind(dc, ind);
    ScheduleHandle sh = hot.inspect(lh);
    ScheduleHandle sc = cold.inspect(lc);
    (void)sh;
    (void)sc;

    std::vector<int> next = map;
    next[9] = 0;  // tail move: everything else is home-stable
    const DistHandle ndh = hot.repartition(dh, std::span<const int>(next));
    const DistHandle ndc = cold.repartition(dc, std::span<const int>(next));

    const core::OwnerDelta* delta = hot.owner_delta(ndh);
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(delta->moved_count(), 1);
    EXPECT_EQ(delta->unstable_count(), 1);
    EXPECT_TRUE(delta->owner_moved(9));
    EXPECT_TRUE(delta->home_stable(8));
    EXPECT_EQ(cold.owner_delta(ndc), nullptr);

    EXPECT_TRUE(
        ts::tables_equal(hot.dist(ndh).table(), cold.dist(ndc).table()));

    const ScheduleHandle nsh = hot.inspect(hot.bind(ndh, ind));
    const ScheduleHandle nsc = cold.inspect(cold.bind(ndc, ind));
    EXPECT_TRUE(ts::schedules_equal(hot.schedule(nsh), cold.schedule(nsc)));
    EXPECT_TRUE(ts::spans_equal(hot.local_refs(hot.bind(ndh, ind)),
                                cold.local_refs(cold.bind(ndc, ind)),
                                "localized refs"));

    // The loop touches only stable elements: its schedule was carried with
    // a recv-side patch, no re-translation anywhere.
    const auto rs = hot.registry_stats(ndh);
    EXPECT_EQ(rs.carried_plans, 1u);
    EXPECT_EQ(rs.patched_schedules, 1u);
    EXPECT_EQ(rs.rebuilt_schedules, 0u);
    EXPECT_EQ(rs.seed_translations, 0u);
    EXPECT_EQ(hot.hash_stats(ndh).translations, 0u);
    // Only rank 0 has references in this scenario, so only its table
    // carries entries forward.
    if (comm.rank() == 0) {
      EXPECT_GT(hot.hash_stats(ndh).reused_homes, 0u);
    }
  });
}

// A loop that references the moved element must have its schedule
// regenerated (stale segment rewrite via request exchange) — but stable
// entries still carry their translations.
TEST(CrossEpochReuse, LoopTouchingMovedElementRebuildsSchedule) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime hot(comm);
    Runtime cold(comm);
    cold.set_cross_epoch_reuse(false);

    const std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    DistHandle dh = hot.irregular(map);
    DistHandle dc = cold.irregular(map);

    lang::IndirectionArray ind;
    if (comm.rank() == 0) ind.assign({0, 9, 6, 8});  // references global 9
    (void)hot.inspect(hot.bind(dh, ind));
    (void)cold.inspect(cold.bind(dc, ind));

    std::vector<int> next = map;
    next[9] = 0;
    const DistHandle ndh = hot.repartition(dh, std::span<const int>(next));
    const DistHandle ndc = cold.repartition(dc, std::span<const int>(next));

    const auto rs = hot.registry_stats(ndh);
    EXPECT_EQ(rs.carried_plans, 1u);
    EXPECT_EQ(rs.patched_schedules, 0u);
    EXPECT_EQ(rs.rebuilt_schedules, 1u);
    // Only the moved element was re-translated; 0/6/8 carried forward.
    // (Rank 1 references nothing, so machine-wide the count is rank 0's.)
    if (comm.rank() == 0) {
      EXPECT_EQ(rs.seed_translations, 1u);
    }

    const ScheduleHandle nsh = hot.inspect(hot.bind(ndh, ind));
    const ScheduleHandle nsc = cold.inspect(cold.bind(ndc, ind));
    EXPECT_TRUE(ts::schedules_equal(hot.schedule(nsh), cold.schedule(nsc)));
  });
}

// An identical successor map is the degenerate delta: nothing moves,
// nothing is re-translated, every schedule survives.
TEST(CrossEpochReuse, IdenticalMapCarriesEverything) {
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime hot(comm);
    std::vector<int> map(30);
    for (std::size_t g = 0; g < map.size(); ++g)
      map[g] = static_cast<int>(g % 3);
    DistHandle dh = hot.irregular(map);
    lang::IndirectionArray ind;
    ind.assign({0, 7, 14, 21, static_cast<GlobalIndex>(comm.rank())});
    (void)hot.inspect(hot.bind(dh, ind));

    const DistHandle ndh = hot.repartition(dh, std::span<const int>(map));
    ASSERT_NE(hot.owner_delta(ndh), nullptr);
    EXPECT_EQ(hot.owner_delta(ndh)->moved_count(), 0);
    EXPECT_EQ(hot.owner_delta(ndh)->owner_stability(), 1.0);
    const auto rs = hot.registry_stats(ndh);
    EXPECT_EQ(rs.patched_schedules, 1u);
    EXPECT_EQ(rs.seed_translations, 0u);

    // The carried plan is immediately usable.
    const ScheduleHandle s = hot.inspect(hot.bind(ndh, ind));
    std::vector<double> x(static_cast<std::size_t>(hot.extent(s)), -1.0);
    const std::vector<GlobalIndex> mine = hot.owned_globals(ndh);
    for (std::size_t i = 0; i < mine.size(); ++i)
      x[i] = static_cast<double>(mine[i]);
    hot.gather<double>(s, std::span<double>{x});
    const auto refs = hot.local_refs(hot.bind(ndh, ind));
    const auto vals = ind.values();
    for (std::size_t k = 0; k < refs.size(); ++k)
      EXPECT_EQ(x[static_cast<std::size_t>(refs[k])],
                static_cast<double>(vals[k]));
  });
}

// ---- the randomized suite ---------------------------------------------------

TEST(CrossEpochReuse, RandomizedFullRebuildEquivalence) {
  const std::uint64_t seeds = ts::seed_count(100, "CHAOS_REUSE_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_REUSE_SEED_BASE", 1);
  for (std::uint64_t s = base; s < base + seeds; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    run_equivalence_scenario(s, /*paged=*/false);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(CrossEpochReuse, RandomizedEquivalenceWithPagedTables) {
  // Paged tables route every translation through a query/reply exchange;
  // a smaller sweep keeps the suite fast while covering the communicating
  // lookup path of seeding and delta remap planning.
  const std::uint64_t seeds = ts::seed_count(12, "CHAOS_REUSE_PAGED_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_REUSE_SEED_BASE", 1);
  for (std::uint64_t s = base; s < base + seeds; ++s) {
    SCOPED_TRACE("paged seed=" + std::to_string(s));
    run_equivalence_scenario(s, /*paged=*/true);
    if (::testing::Test::HasFailure()) break;
  }
}

// ---- slot-level re-inspection ------------------------------------------------

/// A sweep-like loop re-inspected through slot deltas (IndexHashTable::
/// rehash) must leave exactly what the full re-hash leaves. Two Runtimes run
/// the same script over the same comm: `rt` inspects an array whose record
/// stays slot-granular; `full` inspects a copy assigned twice per change, so
/// its record is never relative to the planned version and every
/// re-inspection takes the full path. Small deltas are re-inspected before a
/// repartition, across it (a changed array whose stale plan was seeded into
/// the successor epoch) and after remap_ghost_locality; then two assigns
/// between inspects and a >25% change must take the full path in `rt` too.
/// After each inspection localized refs, schedules, extents, hash stats and
/// gather / scatter_add results must be bitwise equal across the two, and
/// the gathered values and owner sums equal to a cold Runtime inspecting
/// the same final array on the same map.
void run_slot_delta_scenario(std::uint64_t seed, bool paged) {
  Rng shape_rng(seed);
  const int P = 2 + static_cast<int>(shape_rng.below(3));
  const GlobalIndex n = 200 + static_cast<GlobalIndex>(shape_rng.below(800));

  Machine m(P);
  m.run([&](Comm& comm) {
    Runtime rt(comm);
    Runtime full(comm);
    Rng map_rng(seed * 1000003 + 29);
    std::vector<int> map(static_cast<std::size_t>(n));
    for (int& p : map) p = static_cast<int>(map_rng.below(P));
    const auto distribute = [&](Runtime& r) {
      return paged ? r.irregular_paged(map) : r.irregular(map);
    };
    DistHandle ds = distribute(rt);
    DistHandle df = distribute(full);

    Rng ref_rng(seed * 7919 + 3 +
                static_cast<std::uint64_t>(comm.rank()) * 65537);
    const auto random_global = [&] {
      return static_cast<GlobalIndex>(
          ref_rng.below(static_cast<std::uint64_t>(n)));
    };
    std::vector<GlobalIndex> values(100 + ref_rng.below(300));
    for (GlobalIndex& g : values) g = random_global();
    // Redraw `fraction` of the slots (with repeats: at most that many
    // change).
    const auto redraw = [&](double fraction) {
      const auto k = static_cast<std::size_t>(
          static_cast<double>(values.size()) * fraction);
      for (std::size_t i = 0; i < k; ++i)
        values[static_cast<std::size_t>(ref_rng.below(values.size()))] =
            random_global();
    };

    lang::IndirectionArray ind, ind_full;
    const auto publish = [&] {
      ind.assign(values);
      ind_full.assign({});
      ind_full.assign(values);
    };
    publish();

    std::uint64_t expected_slot = 0;
    const auto inspect = [&](bool slot_path) {
      (void)rt.inspect(ds, ind);
      (void)full.inspect(df, ind_full);
      if (slot_path) ++expected_slot;
      EXPECT_EQ(rt.registry_stats(ds).incremental_rehashes, expected_slot);
      EXPECT_EQ(full.registry_stats(df).incremental_rehashes, 0u);
    };

    const auto verify = [&](const std::string& what) {
      SCOPED_TRACE(what);
      const LoopHandle ls = rt.bind(ds, ind);
      const LoopHandle lf = full.bind(df, ind_full);
      const ScheduleHandle ss = rt.inspect(ls);
      const ScheduleHandle sf = full.inspect(lf);
      const auto rs = rt.local_refs(ls);
      const auto rf = full.local_refs(lf);
      EXPECT_TRUE(ts::spans_equal(rs, rf, "localized refs"));
      EXPECT_TRUE(ts::schedules_equal(rt.schedule(ss), full.schedule(sf)));
      EXPECT_EQ(rt.extent(ss), full.extent(sf));
      EXPECT_EQ(rt.hash_stats(ds).inserts, full.hash_stats(df).inserts);
      EXPECT_EQ(rt.hash_stats(ds).hits, full.hash_stats(df).hits);
      EXPECT_EQ(rt.hash_stats(ds).translations,
                full.hash_stats(df).translations);

      // A cold Runtime inspecting the same final array on the same map.
      Runtime cold(comm);
      const DistHandle dc = distribute(cold);
      const lang::IndirectionArray cind(values);
      const LoopHandle lc = cold.bind(dc, cind);
      const ScheduleHandle sc = cold.inspect(lc);
      const auto rc = cold.local_refs(lc);

      const std::vector<GlobalIndex> mine = rt.owned_globals(ds);
      const auto owned = static_cast<std::size_t>(rt.owned_count(ds));
      const auto fill = [&](std::vector<double>& x) {
        for (std::size_t i = 0; i < owned; ++i)
          x[i] = static_cast<double>(mine[i] * 3 + 1);
      };
      std::vector<double> xs(static_cast<std::size_t>(rt.extent(ss)), -1.0);
      std::vector<double> xf(static_cast<std::size_t>(full.extent(sf)), -1.0);
      std::vector<double> xc(static_cast<std::size_t>(cold.extent(sc)), -1.0);
      fill(xs);
      fill(xf);
      fill(xc);
      rt.gather<double>(ss, std::span<double>{xs});
      full.gather<double>(sf, std::span<double>{xf});
      cold.gather<double>(sc, std::span<double>{xc});
      EXPECT_TRUE(ts::spans_equal(xs, xf, "gathered extent"));
      ASSERT_EQ(rs.size(), values.size());
      ASSERT_EQ(rc.size(), values.size());
      for (std::size_t k = 0; k < values.size(); ++k) {
        const double want = static_cast<double>(values[k] * 3 + 1);
        if (xs[static_cast<std::size_t>(rs[k])] != want ||
            xc[static_cast<std::size_t>(rc[k])] != want) {
          ADD_FAILURE() << "gathered value of ref " << k;
          break;
        }
      }

      std::vector<double> as(xs.size(), 0.0), af(xf.size(), 0.0),
          ac(xc.size(), 0.0);
      for (std::size_t k = 0; k < values.size(); ++k) {
        as[static_cast<std::size_t>(rs[k])] += static_cast<double>(k + 1);
        af[static_cast<std::size_t>(rf[k])] += static_cast<double>(k + 1);
        ac[static_cast<std::size_t>(rc[k])] += static_cast<double>(k + 1);
      }
      rt.scatter_add<double>(ss, std::span<double>{as});
      full.scatter_add<double>(sf, std::span<double>{af});
      cold.scatter_add<double>(sc, std::span<double>{ac});
      EXPECT_TRUE(ts::spans_equal(as, af, "scatter_add extent"));
      EXPECT_TRUE(ts::spans_equal(
          std::span<const double>{as.data(), owned},
          std::span<const double>{ac.data(), owned}, "scatter_add owners"));
    };

    inspect(false);
    verify("initial inspection");
    for (const double fraction : {0.05, 0.1}) {
      redraw(fraction);
      publish();
      inspect(true);
      verify("small delta before the repartition");
    }

    // A changed array crosses the repartition un-inspected: its stale plan
    // is seeded, and the delta is relative to the seeded version.
    redraw(0.05);
    publish();
    std::vector<int> next = map;
    for (GlobalIndex g = n - n / 5; g < n; ++g)
      next[static_cast<std::size_t>(g)] =
          (next[static_cast<std::size_t>(g)] + 1) % P;
    const DistHandle ds2 = rt.repartition(ds, std::span<const int>(next));
    const DistHandle df2 = full.repartition(df, std::span<const int>(next));
    rt.retire(ds);
    full.retire(df);
    ds = ds2;
    df = df2;
    map = std::move(next);
    expected_slot = 0;  // per-epoch counters
    inspect(true);
    verify("delta across the repartition");
    redraw(0.05);
    publish();
    inspect(true);
    verify("small delta in the seeded epoch");

    (void)rt.remap_ghost_locality(ds);
    (void)full.remap_ghost_locality(df);
    verify("after the locality remap");
    redraw(0.05);
    publish();
    inspect(true);
    verify("small delta after the locality remap");

    // Two assigns between inspects: the record is not relative to the plan.
    redraw(0.05);
    ind.assign(values);
    redraw(0.05);
    publish();
    inspect(false);
    verify("two assigns between inspects");

    // More than a quarter of the slots change: no slot-level record.
    for (std::size_t k = 0; k <= values.size() / 2; ++k)
      values[k] = (values[k] + 1) % n;
    publish();
    EXPECT_EQ(ind.delta(), nullptr);
    inspect(false);
    verify("a change of more than a quarter");
  });
}

TEST(CrossEpochReuse, RandomizedSlotDeltaReinspection) {
  const std::uint64_t seeds = ts::seed_count(12, "CHAOS_REUSE_PAGED_SEEDS");
  const std::uint64_t base = env_seed_u64("CHAOS_REUSE_SEED_BASE", 1);
  for (std::uint64_t s = base; s < base + seeds; ++s) {
    for (const bool paged : {false, true}) {
      SCOPED_TRACE((paged ? "paged seed=" : "seed=") + std::to_string(s));
      run_slot_delta_scenario(s, paged);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---- compact() interaction --------------------------------------------------

// Compacting retired ancestor epochs must not disturb a live seeded epoch:
// the carried state is self-contained (fresh hash table, owned delta), so
// inspector products, executor runs, and further reusing repartitions must
// all keep working — under ASan this doubles as a use-after-free probe.
TEST(CrossEpochCompact, CompactAfterReusedEpochsKeepsLiveState) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    std::vector<int> map{0, 0, 0, 1, 1, 1, 0, 1, 0, 1};
    DistHandle e0 = rt.irregular(map);
    lang::IndirectionArray ind;
    if (comm.rank() == 0) ind.assign({0, 3, 7, 8});
    (void)rt.inspect(rt.bind(e0, ind));

    // Two reused epochs: e0 -> e1 -> e2.
    std::vector<int> m1 = map;
    m1[9] = 0;
    const DistHandle e1 = rt.repartition(e0, std::span<const int>(m1));
    rt.retire(e0);
    std::vector<int> m2 = m1;
    m2[8] = 1;
    const DistHandle e2 = rt.repartition(e1, std::span<const int>(m2));
    rt.retire(e1);

    const std::size_t released = rt.compact();
    EXPECT_GT(released, 0u);

    // e2 stays fully functional after its ancestors' state was freed.
    const ScheduleHandle s = rt.inspect(rt.bind(e2, ind));
    std::vector<double> x(static_cast<std::size_t>(rt.extent(s)), -1.0);
    const std::vector<GlobalIndex> mine = rt.owned_globals(e2);
    for (std::size_t i = 0; i < mine.size(); ++i)
      x[i] = static_cast<double>(10 * mine[i]);
    rt.gather<double>(s, std::span<double>{x});
    const auto refs = rt.local_refs(rt.bind(e2, ind));
    const auto vals = ind.values();
    for (std::size_t k = 0; k < refs.size(); ++k)
      EXPECT_EQ(x[static_cast<std::size_t>(refs[k])],
                static_cast<double>(10 * vals[k]));

    // A further reusing repartition seeds from e2's (live) registry.
    std::vector<int> m3 = m2;
    m3[0] = 1;
    const DistHandle e3 = rt.repartition(e2, std::span<const int>(m3));
    ASSERT_NE(rt.owner_delta(e3), nullptr);
    EXPECT_EQ(rt.owner_delta(e3)->moved_count(), 1);
    (void)rt.inspect(rt.bind(e3, ind));
    EXPECT_GT(rt.registry_stats(e3).carried_plans, 0u);
  });
}

// Handles bound to a retired-and-compacted epoch must fail loudly (thrown
// chaos::Error from the use-time checks), never touch freed state.
TEST(CrossEpochCompact, RetiredHandleUseThrowsAfterCompact) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    std::vector<int> map{0, 0, 0, 0, 1, 1, 1, 1};
    DistHandle e0 = rt.irregular(map);
    lang::IndirectionArray ind;
    if (comm.rank() == 0) ind.assign({1, 5, 6});
    const LoopHandle loop = rt.bind(e0, ind);
    const ScheduleHandle sched = rt.inspect(loop);

    std::vector<int> m1 = map;
    m1[7] = 0;
    const DistHandle e1 = rt.repartition(e0, std::span<const int>(m1));
    rt.retire(e0);
    (void)rt.compact();

    EXPECT_FALSE(rt.valid(e0));
    EXPECT_FALSE(rt.valid(loop));
    EXPECT_FALSE(rt.valid(sched));
    EXPECT_TRUE(rt.valid(e1));

    std::vector<double> x(8, 0.0);
    EXPECT_THROW(rt.owned_count(e0), Error);
    EXPECT_THROW(rt.local_extent(e0), Error);
    EXPECT_THROW((void)rt.local_refs(loop), Error);
    EXPECT_THROW(rt.gather<double>(sched, std::span<double>{x}), Error);
    EXPECT_THROW(rt.plan_remap(e0, e1), Error);
    EXPECT_THROW(rt.repartition(e0, std::span<const int>(m1)), Error);
  });
}

}  // namespace
}  // namespace chaos
