// Inspector hash-table tests: dedup, in-place index translation, stamps,
// clearing/reuse, slot stability, compaction, and the reuse statistics that
// make adaptive-problem preprocessing cheap. The randomized oracle tests
// hold hash(), and rehash() over slot deltas, to the original two-pass loop
// (support/reference_hash.hpp) with clear_stamp before each re-inspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "core/hash_table.hpp"
#include "support/reference_hash.hpp"
#include "support/seeds.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

using sim::Comm;
using sim::Machine;

// 10 elements: 0..4 on proc 0, 5..9 on proc 1 (the Figure 6 layout,
// 0-based).
std::vector<int> page_of(const std::vector<int>& full, int rank, int P) {
  part::BlockLayout pages(static_cast<GlobalIndex>(full.size()), P);
  return std::vector<int>(full.begin() + pages.first(rank),
                          full.begin() + pages.first(rank) +
                              pages.size_of(rank));
}

TranslationTable figure6_table(Comm& c) {
  std::vector<int> full{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  return TranslationTable::from_full_map(c, full);
}

TEST(IndexHashTable, TranslatesOwnedToOwnOffsets) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    IndexHashTable h(t.owned_count(c.rank()));
    if (c.rank() == 0) {
      std::vector<GlobalIndex> ind{0, 4, 2};
      h.hash(c, t, ind);
      EXPECT_EQ(ind, (std::vector<GlobalIndex>{0, 4, 2}));
      EXPECT_EQ(h.ghost_count(), 0);
    } else {
      std::vector<GlobalIndex> ind{5, 9};
      h.hash(c, t, ind);
      EXPECT_EQ(ind, (std::vector<GlobalIndex>{0, 4}));  // own offsets
    }
  });
}

TEST(IndexHashTable, AssignsGhostSlotsPastOwnedRegion) {
  Machine m(2);
  m.run([](Comm& c) {
    if (c.rank() != 0) {
      auto t = figure6_table(c);
      (void)t;
      return;
    }
    auto t = figure6_table(c);
    IndexHashTable h(5);
    std::vector<GlobalIndex> ind{6, 8, 6};  // two distinct off-proc globals
    h.hash(c, t, ind);
    EXPECT_EQ(ind, (std::vector<GlobalIndex>{5, 6, 5}));  // dedup: 6 -> slot 5
    EXPECT_EQ(h.ghost_count(), 2);
    EXPECT_EQ(h.local_extent(), 7);
  });
}

TEST(IndexHashTable, RehashingIsHitsNotInserts) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{0, 6, 8};
    h.hash(c, t, a);
    EXPECT_EQ(h.stats().inserts, 3u);
    EXPECT_EQ(h.stats().hits, 0u);
    EXPECT_EQ(h.stats().translations, 3u);

    std::vector<GlobalIndex> b{6, 8, 0, 7};  // 3 old + 1 new
    h.hash(c, t, b);
    EXPECT_EQ(h.stats().inserts, 4u);
    EXPECT_EQ(h.stats().hits, 3u);
    EXPECT_EQ(h.stats().translations, 4u);  // only the new index translated
  });
}

TEST(IndexHashTable, StampsAccumulatePerArray) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{6, 8};
    std::vector<GlobalIndex> b{6, 7};
    const Stamp sa = h.hash(c, t, a);
    const Stamp sb = h.hash(c, t, b);
    EXPECT_NE(sa, sb);
    EXPECT_EQ(h.find(6)->stamps, sa | sb);
    EXPECT_EQ(h.find(8)->stamps, sa);
    EXPECT_EQ(h.find(7)->stamps, sb);
  });
}

TEST(IndexHashTable, ClearStampKillsExclusiveEntriesOnly) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{6, 8};
    std::vector<GlobalIndex> b{6, 7};
    const Stamp sa = h.hash(c, t, a);
    const Stamp sb = h.hash(c, t, b);
    (void)sb;
    h.clear_stamp(sa);
    EXPECT_EQ(h.live_entries(), 2u);  // 6 (still stamped b) and 7
    EXPECT_EQ(h.find(8)->stamps, Stamp{0});
  });
}

TEST(IndexHashTable, ClearedStampIsRecycled) {
  // The paper's CHARMM flow: clear the non-bonded stamp, re-hash the new
  // list with the *same* stamp.
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> bonded{6};
    std::vector<GlobalIndex> nb1{7, 8};
    const Stamp sbonded = h.hash(c, t, bonded);
    const Stamp snb1 = h.hash(c, t, nb1);
    h.clear_stamp(snb1);
    std::vector<GlobalIndex> nb2{8, 9};
    const Stamp snb2 = h.hash(c, t, nb2);
    EXPECT_EQ(snb2, snb1);  // recycled bit
    EXPECT_NE(snb2, sbonded);
  });
}

TEST(IndexHashTable, RevivedEntryKeepsItsGhostSlot) {
  // Ghost-slot stability across clear + re-hash: data already gathered to a
  // slot stays addressable by old local indices.
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{7, 8};
    const Stamp sa = h.hash(c, t, a);
    const GlobalIndex slot7 = h.find(7)->local_index;
    h.clear_stamp(sa);
    std::vector<GlobalIndex> b{9, 7};
    h.hash(c, t, b);
    EXPECT_EQ(h.find(7)->local_index, slot7);
    // 9 gets a fresh slot (after 7 and 8's retained slots).
    EXPECT_EQ(h.find(9)->local_index, 5 + 2);
    // Re-hash after clear translates only genuinely new indices.
    EXPECT_EQ(h.stats().translations, 3u);
  });
}

TEST(IndexHashTable, CompactReclaimsDeadSlots) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{7, 8};
    std::vector<GlobalIndex> b{9};
    const Stamp sa = h.hash(c, t, a);
    h.hash(c, t, b);
    h.clear_stamp(sa);
    EXPECT_EQ(h.ghost_count(), 3);  // dead slots retained...
    h.compact();
    EXPECT_EQ(h.ghost_count(), 1);  // ...until compact()
    EXPECT_EQ(h.find(9)->local_index, 5);
    EXPECT_EQ(h.find(7), nullptr);
  });
}

TEST(IndexHashTable, ManyIndicesForceTableGrowth) {
  Machine m(2);
  m.run([](Comm& c) {
    std::vector<int> full(4000);
    for (std::size_t g = 0; g < full.size(); ++g)
      full[g] = g < 2000 ? 0 : 1;
    auto t = TranslationTable::from_full_map(c, full);
    IndexHashTable h(t.owned_count(c.rank()));
    std::vector<GlobalIndex> ind;
    for (GlobalIndex g = 0; g < 4000; ++g) ind.push_back(g);
    h.hash(c, t, ind);
    EXPECT_EQ(h.live_entries(), 4000u);
    EXPECT_EQ(h.ghost_count(), 2000);
    // Every translated index is in [0, local_extent).
    for (GlobalIndex i : ind) {
      EXPECT_GE(i, 0);
      EXPECT_LT(i, h.local_extent());
    }
  });
}

TEST(IndexHashTable, StampExhaustionThrows) {
  Machine m(1);
  m.run([](Comm& c) {
    std::vector<int> full{0};
    auto t = TranslationTable::from_full_map(c, full);
    IndexHashTable h(1);
    std::vector<GlobalIndex> ind{0};
    for (int i = 0; i < 64; ++i) {
      std::vector<GlobalIndex> copy = ind;
      h.hash(c, t, copy);
    }
    std::vector<GlobalIndex> copy = ind;
    EXPECT_THROW(h.hash(c, t, copy), Error);
  });
}

TEST(StampExpr, MatchingSemantics) {
  const Stamp a = 1, b = 2, c = 4;
  EXPECT_TRUE(StampExpr::only(a).matches(a));
  EXPECT_TRUE(StampExpr::only(a).matches(a | b));
  EXPECT_FALSE(StampExpr::only(a).matches(b));
  EXPECT_TRUE(StampExpr::merged({a, c}).matches(c));
  EXPECT_FALSE(StampExpr::merged({a, c}).matches(b));
  // incremental b-a: in b but not already covered by a
  EXPECT_TRUE(StampExpr::incremental(b, a).matches(b));
  EXPECT_FALSE(StampExpr::incremental(b, a).matches(a | b));
  EXPECT_FALSE(StampExpr::incremental(b, a).matches(a));
}

TEST(IndexHashTable, DistributedTableHashIsCollective) {
  // With a distributed translation table, hash() must work when all ranks
  // call it together, including ranks with empty indirection arrays.
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& c) {
    std::vector<int> full(64);
    for (std::size_t g = 0; g < full.size(); ++g)
      full[g] = static_cast<int>(g % P);
    part::BlockLayout pages(64, P);
    std::vector<int> slice;
    for (GlobalIndex g = pages.first(c.rank());
         g < pages.first(c.rank()) + pages.size_of(c.rank()); ++g)
      slice.push_back(full[static_cast<size_t>(g)]);
    auto t = TranslationTable::build_distributed(c, slice);

    IndexHashTable h(t.owned_count(c.rank()));
    std::vector<GlobalIndex> ind;
    if (c.rank() == 0) ind = {0, 1, 2, 3, 63};
    h.hash(c, t, ind);
    if (c.rank() == 0) {
      // global 0 owned by rank 0 at offset 0; globals 1,2,3,63 are ghosts.
      EXPECT_EQ(ind[0], 0);
      EXPECT_EQ(h.ghost_count(), 4);
    }
  });
}

// ---- randomized oracle: one-probe batched hash() == the two-pass loop ----

/// Everything one rank observes of a hash-table run: the rewritten array,
/// stats, extent, footprint and modeled clock after every call, and the
/// final entries.
struct HashRun {
  std::vector<std::vector<GlobalIndex>> rewritten;
  std::vector<IndexHashTable::Stats> stats;
  std::vector<GlobalIndex> extent;
  std::vector<std::size_t> footprint;
  std::vector<double> clock;
  std::vector<IndexHashTable::Entry> entries;
};

/// The seed's indirection arrays for one rank: duplicates inside a
/// prefetch batch (short repeats from a small pool), references to entries
/// the same call inserted earlier, fresh globals, and enough inserts to
/// grow the table mid-call.
std::vector<GlobalIndex> random_refs(Rng& rng, GlobalIndex n) {
  std::vector<GlobalIndex> refs;
  const std::size_t len = static_cast<std::size_t>(rng.range(0, 1500));
  while (refs.size() < len) {
    const std::uint64_t kind = rng.below(4);
    if (kind == 0 && !refs.empty()) {  // repeat a recent reference
      const std::size_t back =
          1 + static_cast<std::size_t>(rng.below(std::min<std::size_t>(
                  refs.size(), 20)));
      refs.push_back(refs[refs.size() - back]);
    } else if (kind == 1) {  // a small hot pool, dense duplicates
      refs.push_back(static_cast<GlobalIndex>(rng.below(8)));
    } else {
      refs.push_back(static_cast<GlobalIndex>(
          rng.below(static_cast<std::uint64_t>(n))));
    }
  }
  return refs;
}

/// Replay `calls` hash calls (with random stamp clears between them, which
/// leave dead entries for later calls to revive) on `Table`.
template <typename Table>
HashRun replay(Comm& c, const TranslationTable& t, std::uint64_t seed,
               int calls) {
  Rng rng(seed * 7919 + static_cast<std::uint64_t>(c.rank()));
  Table h(t.owned_count(c.rank()));
  HashRun out;
  std::vector<Stamp> live;
  for (int call = 0; call < calls; ++call) {
    if (!live.empty() && rng.below(3) == 0) {
      const std::size_t k = static_cast<std::size_t>(rng.below(live.size()));
      h.clear_stamp(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
    std::vector<GlobalIndex> refs = random_refs(rng, t.global_size());
    live.push_back(h.hash(c, t, refs));
    out.rewritten.push_back(std::move(refs));
    out.stats.push_back(h.stats());
    out.extent.push_back(h.local_extent());
    out.footprint.push_back(h.footprint_bytes());
    out.clock.push_back(c.now());
  }
  out.entries.assign(h.entries().begin(), h.entries().end());
  return out;
}

void expect_same_run(const HashRun& got, const HashRun& want) {
  ASSERT_EQ(got.rewritten.size(), want.rewritten.size());
  for (std::size_t i = 0; i < got.rewritten.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    EXPECT_EQ(got.rewritten[i], want.rewritten[i]);
    EXPECT_EQ(got.stats[i].inserts, want.stats[i].inserts);
    EXPECT_EQ(got.stats[i].hits, want.stats[i].hits);
    EXPECT_EQ(got.stats[i].translations, want.stats[i].translations);
    EXPECT_EQ(got.stats[i].reused_homes, want.stats[i].reused_homes);
    EXPECT_EQ(got.extent[i], want.extent[i]);
    EXPECT_EQ(got.footprint[i], want.footprint[i]);  // same growth points
    EXPECT_EQ(got.clock[i], want.clock[i]);          // same charged work
  }
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].global, want.entries[i].global) << i;
    EXPECT_EQ(got.entries[i].home, want.entries[i].home) << i;
    EXPECT_EQ(got.entries[i].local_index, want.entries[i].local_index) << i;
    EXPECT_EQ(got.entries[i].stamps, want.entries[i].stamps) << i;
  }
}

/// A random owner map over `n` elements, optionally with tombstones.
std::vector<int> random_owner_map(Rng& rng, GlobalIndex n, int P,
                                  bool holes) {
  std::vector<int> map(static_cast<std::size_t>(n));
  for (int& p : map)
    p = holes && rng.below(10) == 0 ? -1
                                    : static_cast<int>(rng.below(
                                          static_cast<std::uint64_t>(P)));
  return map;
}

TEST(IndexHashTable, RandomizedOracleEquivalence) {
  const std::uint64_t seeds = testing_support::seed_count(20);
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    for (const bool paged : {false, true}) {
      SCOPED_TRACE(paged ? "paged, 4 ranks" : "replicated, 2 ranks");
      const int P = paged ? 4 : 2;
      Rng rng(s);
      const GlobalIndex n = rng.range(40, 4000);
      const std::vector<int> map = random_owner_map(rng, n, P, false);
      std::vector<HashRun> got(static_cast<std::size_t>(P));
      std::vector<HashRun> want(static_cast<std::size_t>(P));
      for (const bool oracle : {false, true}) {
        Machine m(P);
        m.run([&](Comm& c) {
          const TranslationTable t =
              paged ? TranslationTable::build_distributed(
                          c, page_of(map, c.rank(), P))
                    : TranslationTable::from_full_map(c, map);
          HashRun run =
              oracle
                  ? replay<testing_support::ReferenceHashTable>(c, t, s, 8)
                  : replay<IndexHashTable>(c, t, s, 8);
          (oracle ? want : got)[static_cast<std::size_t>(c.rank())] =
              std::move(run);
        });
      }
      for (int r = 0; r < P; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        expect_same_run(got[static_cast<std::size_t>(r)],
                        want[static_cast<std::size_t>(r)]);
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---- randomized oracle: rehash() over a slot delta == clear_stamp + hash ----

/// One slot-level delta of `globals`: ascending slots, their old values and
/// the new contents.
struct SlotChange {
  std::vector<std::uint32_t> slots;
  std::vector<GlobalIndex> old_values;
  std::vector<GlobalIndex> next;
};

/// A delta of `k` distinct slots. New values mix fresh globals, globals of
/// earlier replaced references (`graveyard`: reviving entries a delta left
/// dead), duplicates among the changed slots, and globals the array already
/// holds elsewhere (hits only). With `hits_only`, every new value is one the
/// array already holds, so the rank inserts nothing.
SlotChange random_change(Rng& rng, const std::vector<GlobalIndex>& globals,
                         std::size_t k, GlobalIndex n,
                         std::vector<GlobalIndex>& graveyard, bool hits_only) {
  SlotChange d;
  d.next = globals;
  std::vector<std::uint32_t> pick(globals.size());
  for (std::size_t i = 0; i < pick.size(); ++i)
    pick[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < k; ++i)
    std::swap(pick[i], pick[i + static_cast<std::size_t>(
                                    rng.below(pick.size() - i))]);
  d.slots.assign(pick.begin(), pick.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(d.slots.begin(), d.slots.end());
  std::vector<GlobalIndex> fresh;
  for (const std::uint32_t slot : d.slots) {
    const GlobalIndex old = globals[slot];
    GlobalIndex g;
    const std::uint64_t kind = hits_only ? 3 : rng.below(4);
    if (kind == 0 && !graveyard.empty()) {
      g = graveyard[static_cast<std::size_t>(rng.below(graveyard.size()))];
    } else if (kind == 1 && !fresh.empty()) {
      g = fresh[static_cast<std::size_t>(rng.below(fresh.size()))];
    } else if (kind == 3) {
      g = globals[static_cast<std::size_t>(rng.below(globals.size()))];
    } else {
      g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
    }
    fresh.push_back(g);
    d.old_values.push_back(old);
    d.next[slot] = g;
    graveyard.push_back(old);
  }
  return d;
}

/// Replay a re-inspection script: three arrays hashed cold after a junk
/// array, then `calls` re-inspections of a random array through a slot
/// delta of 0, 1, ~10% or exactly 25% of its slots. The junk array's stamp
/// is cleared mid-script, so later re-inspections of the other arrays see
/// a lower free stamp and must fall back. `SlotPath` re-inspects through
/// rehash() (falling back to clear_stamp + hash() when it declines);
/// otherwise through clear_stamp + hash().
template <typename Table, bool SlotPath>
HashRun replay_deltas(Comm& c, const TranslationTable& t, std::uint64_t seed,
                      int calls, int& slot_calls) {
  Rng rng(seed * 104729 + static_cast<std::uint64_t>(c.rank()));
  const GlobalIndex n = t.global_size();
  Table h(t.owned_count(c.rank()));
  HashRun out;
  std::vector<GlobalIndex> junk = random_refs(rng, n);
  const Stamp junk_stamp = h.hash(c, t, junk);
  const int clear_junk_at = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(calls)));
  struct Loop {
    std::vector<GlobalIndex> globals, local;
    Stamp stamp = 0;
  };
  std::vector<Loop> loops(3);
  for (Loop& l : loops) {
    l.globals = random_refs(rng, n);
    l.local = l.globals;
    l.stamp = h.hash(c, t, l.local);
  }
  std::vector<GlobalIndex> graveyard;
  for (int call = 0; call < calls; ++call) {
    if (call == clear_junk_at) h.clear_stamp(junk_stamp);
    Loop& l = loops[static_cast<std::size_t>(rng.below(loops.size()))];
    const std::size_t len = l.globals.size();
    const std::size_t sizes[] = {0, std::min<std::size_t>(1, len), len / 10,
                                 len / 4};
    const std::size_t k = sizes[rng.below(4)];
    const bool hits_only = c.rank() == 0 && call % 3 == 0;
    SlotChange d = random_change(rng, l.globals, k, n, graveyard, hits_only);
    bool rehashed = false;
    if constexpr (SlotPath)
      rehashed = h.rehash(c, t, l.stamp, l.local, d.slots, d.old_values,
                          d.next);
    if (rehashed) {
      ++slot_calls;
    } else {
      h.clear_stamp(l.stamp);
      l.local = d.next;
      l.stamp = h.hash(c, t, l.local);
    }
    l.globals = std::move(d.next);
    out.rewritten.push_back(l.local);
    out.stats.push_back(h.stats());
    out.extent.push_back(h.local_extent());
    out.footprint.push_back(h.footprint_bytes());
    out.clock.push_back(c.now());
  }
  out.entries.assign(h.entries().begin(), h.entries().end());
  return out;
}

TEST(IndexHashTable, RandomizedRehashOracleEquivalence) {
  const std::uint64_t seeds = testing_support::seed_count(20);
  int slot_calls = 0;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    for (const bool paged : {false, true}) {
      SCOPED_TRACE(paged ? "paged, 4 ranks" : "replicated, 2 ranks");
      const int P = paged ? 4 : 2;
      Rng rng(s);
      const GlobalIndex n = rng.range(40, 4000);
      const std::vector<int> map = random_owner_map(rng, n, P, false);
      std::vector<HashRun> got(static_cast<std::size_t>(P));
      std::vector<HashRun> want(static_cast<std::size_t>(P));
      std::vector<int> slot_calls_of(static_cast<std::size_t>(P), 0);
      for (const bool oracle : {false, true}) {
        Machine m(P);
        m.run([&](Comm& c) {
          const TranslationTable t =
              paged ? TranslationTable::build_distributed(
                          c, page_of(map, c.rank(), P))
                    : TranslationTable::from_full_map(c, map);
          int& calls = slot_calls_of[static_cast<std::size_t>(c.rank())];
          HashRun run =
              oracle ? replay_deltas<testing_support::ReferenceHashTable,
                                     false>(c, t, s, 12, calls)
                     : replay_deltas<IndexHashTable, true>(c, t, s, 12, calls);
          (oracle ? want : got)[static_cast<std::size_t>(c.rank())] =
              std::move(run);
        });
      }
      for (int r = 0; r < P; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        expect_same_run(got[static_cast<std::size_t>(r)],
                        want[static_cast<std::size_t>(r)]);
        slot_calls += slot_calls_of[static_cast<std::size_t>(r)];
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(slot_calls, 0);  // the slot path actually ran
}

TEST(IndexHashTable, RehashDeclinesWhenALowerStampIsFree) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{6};
    std::vector<GlobalIndex> b{7, 8};
    const Stamp sa = h.hash(c, t, a);
    const Stamp sb = h.hash(c, t, b);
    h.clear_stamp(sa);  // hash() after clear_stamp(sb) would take sa's bit
    const std::vector<std::uint32_t> slots{1};
    const std::vector<GlobalIndex> old_values{8};
    const std::vector<GlobalIndex> next{7, 9};
    const std::vector<GlobalIndex> before = b;
    EXPECT_FALSE(h.rehash(c, t, sb, b, slots, old_values, next));
    EXPECT_EQ(b, before);
    EXPECT_EQ(h.find(8)->stamps, sb);
    EXPECT_EQ(h.find(9), nullptr);
  });
}

TEST(IndexHashTable, RehashGrowsWhereAFullPassWould) {
  // 44 entries sit one insert below the first growth (64 slots, load 0.7).
  // Changing slot 0 to a new global crosses it; a full pass grows at the
  // next reference, so rehash must grow too although no changed slot
  // follows.
  Machine m(1);
  m.run([](Comm& c) {
    const auto t = TranslationTable::from_full_map(c, std::vector<int>(200));
    IndexHashTable h(200);
    testing_support::ReferenceHashTable ref(200);
    std::vector<GlobalIndex> globals(45, 0);
    std::iota(globals.begin(), globals.begin() + 44, GlobalIndex{0});
    std::vector<GlobalIndex> a = globals, b = globals;
    const Stamp sa = h.hash(c, t, a);
    const Stamp sb = ref.hash(c, t, b);
    std::vector<GlobalIndex> next = globals;
    next[0] = 100;
    const std::vector<std::uint32_t> slots{0};
    const std::vector<GlobalIndex> old_values{0};
    ASSERT_TRUE(h.rehash(c, t, sa, a, slots, old_values, next));
    ref.clear_stamp(sb);
    b = next;
    ref.hash(c, t, b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(h.footprint_bytes(), ref.footprint_bytes());
  });
}

TEST(IndexHashTable, RandomizedOracleTombstoneThrows) {
  // A reference to a deleted (tombstoned) element throws in both, after
  // the same hits and inserts.
  const std::uint64_t seeds = testing_support::seed_count(20);
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    Rng rng(s);
    const GlobalIndex n = rng.range(40, 2000);
    std::vector<int> map = random_owner_map(rng, n, 1, true);
    const auto dead = static_cast<std::size_t>(rng.below(
        static_cast<std::uint64_t>(n)));
    map[dead] = -1;
    Machine m(1);
    m.run([&](Comm& c) {
      const TranslationTable t = TranslationTable::from_full_map(c, map);
      IndexHashTable h(t.owned_count(0));
      testing_support::ReferenceHashTable ref(t.owned_count(0));
      std::vector<GlobalIndex> refs = random_refs(rng, n);
      refs.insert(refs.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(refs.size() + 1)),
                  static_cast<GlobalIndex>(dead));
      std::vector<GlobalIndex> a = refs, b = refs;
      EXPECT_THROW(h.hash(c, t, a), Error);
      EXPECT_THROW(ref.hash(c, t, b), Error);
      EXPECT_EQ(h.stats().inserts, ref.stats().inserts);
      EXPECT_EQ(h.stats().hits, ref.stats().hits);
    });
  }
}

}  // namespace
}  // namespace chaos::core
