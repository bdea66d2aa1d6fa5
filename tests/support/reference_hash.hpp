// Test oracle: the inspector hash table's original two-pass hash() loop,
// kept verbatim over a standalone copy of the table's layout (entries in
// insertion order, an open-addressed index of entry ids, lowest-free-bit
// stamps). Pass 1 probes every reference and enters new ones; pass 2
// probes every reference again to rewrite it. core::IndexHashTable::hash,
// and IndexHashTable::rehash over a slot delta against clear_stamp + hash
// here, must leave exactly the entries, rewritten indices, stats and extent
// this loop leaves (tests/core/hash_table_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/costs.hpp"
#include "core/hash_table.hpp"

namespace chaos::testing_support {

class ReferenceHashTable {
 public:
  using Entry = core::IndexHashTable::Entry;
  using Stats = core::IndexHashTable::Stats;
  using GlobalIndex = core::GlobalIndex;

  explicit ReferenceHashTable(GlobalIndex owned_count) : owned_(owned_count) {
    index_.assign(64, -1);
  }

  core::Stamp hash(sim::Comm& comm, const core::TranslationTable& table,
                   std::span<GlobalIndex> indices) {
    const core::Stamp stamp = allocate_stamp();

    // Pass 1: enter indices; collect globals that need translation.
    std::vector<GlobalIndex> unknown;
    std::vector<std::int32_t> unknown_ids;
    double hit_work = 0.0, insert_work = 0.0;
    for (GlobalIndex g : indices) {
      if (entries_.size() * 10 >= index_.size() * 7) grow();
      const std::size_t at = probe(g);
      if (index_[at] >= 0) {
        Entry& e = entries_[static_cast<std::size_t>(index_[at])];
        e.stamps |= stamp;  // revives dead entries too; slot is stable
        ++stats_.hits;
        hit_work += core::costs::kHashHit;
      } else {
        const std::int32_t id = static_cast<std::int32_t>(entries_.size());
        entries_.push_back(Entry{g, core::Home{}, -1, stamp});
        index_[at] = id;
        unknown.push_back(g);
        unknown_ids.push_back(id);
        ++stats_.inserts;
        insert_work += core::costs::kHashInsert;
      }
    }
    comm.charge_work(hit_work + insert_work);

    // Batch-translate the new indices (collective when the translation
    // table is distributed; every rank participates even with zero
    // unknowns).
    std::vector<core::Home> homes = table.lookup(comm, unknown);
    stats_.translations += unknown.size();
    for (std::size_t i = 0; i < unknown.size(); ++i) {
      Entry& e = entries_[static_cast<std::size_t>(unknown_ids[i])];
      e.home = homes[i];
      CHAOS_CHECK(e.home.proc >= 0,
                  "indirection array references a deleted (tombstoned) "
                  "element");
      e.local_index = (e.home.proc == comm.rank())
                          ? e.home.offset
                          : owned_ + next_ghost_slot_++;
    }

    // Pass 2: rewrite the indirection array to local indices.
    for (GlobalIndex& g : indices) {
      const std::size_t at = probe(g);
      CHAOS_ASSERT(index_[at] >= 0);
      g = entries_[static_cast<std::size_t>(index_[at])].local_index;
    }
    return stamp;
  }

  void clear_stamp(core::Stamp stamp) {
    for (Entry& e : entries_) e.stamps &= ~stamp;
    free_stamps_ |= stamp;
  }

  std::span<const Entry> entries() const { return entries_; }
  const Stats& stats() const { return stats_; }
  GlobalIndex local_extent() const { return owned_ + next_ghost_slot_; }
  std::size_t footprint_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(std::int32_t);
  }

 private:
  static std::uint64_t mix(GlobalIndex g) {
    std::uint64_t z = static_cast<std::uint64_t>(g) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::size_t probe(GlobalIndex g) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t at = static_cast<std::size_t>(mix(g)) & mask;
    for (;;) {
      const std::int32_t id = index_[at];
      if (id < 0) return at;
      if (entries_[static_cast<std::size_t>(id)].global == g) return at;
      at = (at + 1) & mask;
    }
  }

  void grow() {
    std::vector<std::int32_t> old = std::move(index_);
    index_.assign(old.size() * 2, -1);
    const std::size_t mask = index_.size() - 1;
    for (std::int32_t id : old) {
      if (id < 0) continue;
      std::size_t at =
          static_cast<std::size_t>(
              mix(entries_[static_cast<std::size_t>(id)].global)) &
          mask;
      while (index_[at] >= 0) at = (at + 1) & mask;
      index_[at] = id;
    }
  }

  core::Stamp allocate_stamp() {
    CHAOS_CHECK(free_stamps_ != 0, "all 64 stamps in use; clear one first");
    const core::Stamp stamp = free_stamps_ & (~free_stamps_ + 1);
    free_stamps_ &= ~stamp;
    return stamp;
  }

  GlobalIndex owned_;
  GlobalIndex next_ghost_slot_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::int32_t> index_;
  core::Stamp free_stamps_ = ~core::Stamp{0};
  Stats stats_;
};

}  // namespace chaos::testing_support
