// The inspector's index hash table (paper §3.2.2).
//
// `CHAOS_hash` is `IndexHashTable::hash`: it enters every global index of an
// indirection array into the table, translates global indices to local
// indices *in place*, and returns a stamp identifying the array's entries.
// The table stores, per global index:
//   - the translated address (home processor + offset, from the translation
//     table),
//   - the assigned local index (owned elements map to their own offset;
//     off-processor elements get a ghost-buffer slot past the owned region),
//   - the stamp mask of every indirection array that referenced it.
//
// The two-step inspector falls out: `hash` is index analysis;
// `build_schedule` (schedule.hpp) reads matching entries back out. The
// payoff for adaptive problems is reuse: re-hashing a mostly-unchanged
// indirection array finds most indices already present and skips their
// translation — `Stats` exposes exactly how much work was avoided.
//
// `hash` probes each reference once. References are taken in batches whose
// open-addressing slots and entry rows are prefetched before use, so the
// two dependent cache misses of a probe overlap across the batch. A hit is
// rewritten in place; a reference to an entry this call inserted is
// rewritten to -(id + 1), since its local index waits on the batched
// translation, and one sequential fix-up pass resolves those afterwards.
//
// `rehash` is the re-inspection of an array whose modification record names
// the slots that changed (lang::IndirectionArray::delta). It probes only
// those slots and leaves exactly the state clear_stamp + hash would: an
// entry loses the array's stamp only when no slot references it any more,
// new entries can come only from changed slots (entered in ascending slot
// order, as a full pass meets them), and the work charged is a full pass's.
// The probes that clear a stamp are batched and prefetched like hash()'s.
//
// Ghost slots are stable: clearing a stamp never moves surviving entries,
// and re-hashing an index whose stamps were cleared revives it with its old
// slot. `compact()` explicitly reclaims dead slots (which invalidates any
// schedule built earlier).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/stamp.hpp"
#include "core/translation_table.hpp"
#include "sim/machine.hpp"
#include "util/check.hpp"

namespace chaos::core {

class IndexHashTable {
 public:
  /// `owned_count` is the size of this rank's owned region; assigned local
  /// indices for off-processor elements start at owned_count.
  explicit IndexHashTable(GlobalIndex owned_count);

  struct Entry {
    GlobalIndex global = -1;
    Home home;
    GlobalIndex local_index = -1;
    Stamp stamps = 0;
  };

  struct Stats {
    std::uint64_t inserts = 0;       ///< new indices entered
    std::uint64_t hits = 0;          ///< indices found already present
    std::uint64_t translations = 0;  ///< translation-table lookups performed
    /// Entries whose Home was carried forward from the previous
    /// distribution epoch without a translation-table lookup (cross-epoch
    /// reuse, append_seeded() with a prior-epoch Home).
    std::uint64_t reused_homes = 0;
  };

  /// Index analysis for one indirection array. Enters all indices, rewrites
  /// them to local indices in place, marks them with a fresh stamp (lowest
  /// free bit, so a just-cleared stamp is recycled), and returns that stamp.
  ///
  /// Collective: all ranks must call together (translation of unknown
  /// indices may communicate when the table is distributed).
  Stamp hash(sim::Comm& comm, const TranslationTable& table,
             std::span<GlobalIndex> indices);

  /// Re-inspection over a slot-level delta: `refs` is an array's localized
  /// references under `stamp`, and slot slots[i] (ascending) changed from
  /// global old_values[i] to values[slots[i]]. Rewrites those slots, leaving
  /// exactly what clear_stamp(stamp) + hash(values) would; returns false,
  /// touching nothing, when that hash() would allocate another stamp.
  /// Collective like hash() (the same one translation-table lookup).
  bool rehash(sim::Comm& comm, const TranslationTable& table, Stamp stamp,
              std::span<GlobalIndex> refs,
              std::span<const std::uint32_t> slots,
              std::span<const GlobalIndex> old_values,
              std::span<const GlobalIndex> values);

  // ---- cross-epoch seeding -------------------------------------------
  //
  // After a repartition, the next epoch's hash table is *seeded* from the
  // previous epoch's: ScheduleRegistry::seed_from replays each cached
  // loop's references keyed by the prior epoch's dense local indices, with
  // no probing. A reference to an element already seeded ORs in the loop's
  // stamp (restamp_seeded); a first reference appends its entry
  // (append_seeded), with the Home carried forward when the owner delta
  // proves it stable, so ghost slots follow a cold pass's first-encounter
  // order. Entry storage and the index are each sized once, at the
  // capacity that cold pass reaches — the seeded state is exactly the cold
  // pass's, which the seeded-table oracle test asserts.

  /// Take the lowest free stamp bit (the same allocation policy hash()
  /// uses) without hashing anything.
  Stamp allocate_stamp();

  /// Seeding: make room for `more` entries about to be appended, at the
  /// capacity appending them one at a time would reach.
  void reserve_seeded(std::size_t more) {
    if (more > 0) entries_.reserve(std::bit_ceil(entries_.size() + more));
  }

  /// Seeding: append the entry for `g`, met for the first time, under
  /// `stamp` with a known `home`; its local index is assigned as hash()
  /// would on rank `self_rank` and returned. The entry is not findable
  /// until index_seeded().
  GlobalIndex append_seeded(GlobalIndex g, Home home, Stamp stamp,
                            int self_rank) {
    CHAOS_ASSERT(home.proc >= 0, "seeding a new entry requires a Home");
    const GlobalIndex local =
        home.proc == self_rank ? home.offset : owned_ + next_ghost_slot_++;
    entries_.push_back(Entry{g, home, local, stamp});
    return local;
  }

  /// Seeding: a further reference, under `stamp`, to seeded entry `id`.
  void restamp_seeded(std::int32_t id, Stamp stamp) {
    entries_[static_cast<std::size_t>(id)].stamps |= stamp;
  }

  /// Finish seeding a fresh table: count `refs` replayed references (one
  /// insert per entry, the rest hits) and `reused_homes` carried Homes, and
  /// build the index at the capacity entering one reference at a time
  /// reaches with `load` entries present at its last load check.
  void index_seeded(std::uint64_t refs, std::uint64_t reused_homes,
                    std::size_t load);

  /// All entries in insertion order, including dead ones (stamps == 0).
  std::span<const Entry> entries() const { return entries_; }

  /// Remove `stamp` from every entry and return the bit to the free pool.
  /// Entries left with no stamps become dead but keep their ghost slot
  /// until compact().
  void clear_stamp(Stamp stamp);

  /// Drop dead entries and re-pack ghost slots densely (in surviving
  /// insertion order). Invalidates previously built schedules.
  void compact();

  /// Renumber ghost slots through `new_slot_of_old` (indexed by old ghost
  /// ordinal, values full local indices >= owned; every assigned slot must
  /// be covered). Used by the locality remap pass
  /// (compile/locality.hpp) — the caller is responsible for rewriting the
  /// recv sides of existing schedules through the same permutation; ghost
  /// data already gathered is invalidated.
  void permute_ghosts(std::span<const GlobalIndex> new_slot_of_old);

  GlobalIndex owned_count() const { return owned_; }
  /// Ghost-buffer slots assigned so far (including slots of dead entries
  /// until compact()).
  GlobalIndex ghost_count() const { return next_ghost_slot_; }
  /// Size a local data array must have to hold owned + ghost elements.
  GlobalIndex local_extent() const { return owned_ + next_ghost_slot_; }

  /// Number of live entries.
  std::size_t live_entries() const;
  const Stats& stats() const { return stats_; }

  /// Approximate heap footprint (entry + open-addressing storage), for
  /// registry memory accounting (Runtime::compact).
  std::size_t footprint_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(std::int32_t);
  }

  /// Visit live entries matching `expr` in insertion order.
  template <typename Fn>
  void for_each_matching(StampExpr expr, Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (e.stamps == 0) continue;
      if (expr.matches(e.stamps)) fn(e);
    }
  }

  /// Direct lookup for tests: returns nullptr if absent.
  const Entry* find(GlobalIndex g) const;

 private:
  /// Slot in index_ holding `g`, or the empty slot it would take; `h` is
  /// mix(g).
  std::size_t probe(GlobalIndex g, std::uint64_t h) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t at = static_cast<std::size_t>(h) & mask;
    for (;;) {
      const std::int32_t id = index_[at];
      if (id < 0 || entries_[static_cast<std::size_t>(id)].global == g)
        return at;
      at = (at + 1) & mask;
    }
  }
  void grow();
  /// Rebuild index_ over all entries at the smallest capacity (at least
  /// 64, doubling) whose load check `load` entries would pass.
  void build_index(std::size_t load);
  /// Enter `refs` under `stamp` as `total` references of which all others
  /// are already present: charge that pass, translate the inserted globals
  /// in one (collective) lookup and rewrite `refs` to local indices.
  void enter_translated(sim::Comm& comm, const TranslationTable& table,
                        std::span<GlobalIndex> refs, Stamp stamp,
                        std::size_t total);
  static std::uint64_t mix(GlobalIndex g) {
    std::uint64_t z = static_cast<std::uint64_t>(g) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Call `visit(k, mix(global_of(k)))` for k in [0, n), in batches whose
  /// open-addressing slots and entry rows are prefetched before the batch
  /// is visited, so the two dependent cache misses of each probe overlap
  /// across the batch.
  template <typename GlobalOf, typename Visit>
  void prefetched(std::size_t n, GlobalOf&& global_of, Visit&& visit) {
    constexpr std::size_t kBatch = 16;
    std::uint64_t h[kBatch];
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t m = std::min(kBatch, n - b);
      const std::size_t mask = index_.size() - 1;
      for (std::size_t k = 0; k < m; ++k) {
        h[k] = mix(global_of(b + k));
        __builtin_prefetch(&index_[static_cast<std::size_t>(h[k]) & mask]);
      }
      for (std::size_t k = 0; k < m; ++k) {
        const std::int32_t id = index_[static_cast<std::size_t>(h[k]) & mask];
        if (id >= 0) __builtin_prefetch(&entries_[static_cast<std::size_t>(id)]);
      }
      for (std::size_t k = 0; k < m; ++k) visit(b + k, h[k]);
    }
  }

  /// Enter every reference of `refs` under `stamp` with one prefetched
  /// probe each. A miss appends `insert(k, g)` for position k. Each
  /// reference is rewritten to its entry's local index, or to -(id + 1)
  /// while that is still unknown (-1). The table grows at exactly the
  /// references where a per-reference load check would grow it.
  template <typename Insert>
  void enter(std::span<GlobalIndex> refs, Stamp stamp, Insert&& insert) {
    std::uint64_t hits = 0;
    prefetched(
        refs.size(), [&](std::size_t k) { return refs[k]; },
        [&](std::size_t k, std::uint64_t h) {
          GlobalIndex& g = refs[k];
          if (entries_.size() * 10 >= index_.size() * 7) grow();
          const std::size_t at = probe(g, h);
          std::int32_t id = index_[at];
          if (id >= 0) {
            entries_[static_cast<std::size_t>(id)].stamps |= stamp;
            ++hits;
          } else {
            id = static_cast<std::int32_t>(entries_.size());
            entries_.push_back(insert(k, g));
            index_[at] = id;
          }
          const GlobalIndex local =
              entries_[static_cast<std::size_t>(id)].local_index;
          g = local >= 0 ? local : -GlobalIndex{id} - 1;
        });
    stats_.hits += hits;
    stats_.inserts += refs.size() - hits;
  }

  GlobalIndex owned_;
  GlobalIndex next_ghost_slot_ = 0;
  std::vector<Entry> entries_;       // insertion-ordered, stable ids
  std::vector<std::int32_t> index_;  // open addressing: entry id or -1
  Stamp free_stamps_ = ~Stamp{0};
  Stats stats_;
};

}  // namespace chaos::core
