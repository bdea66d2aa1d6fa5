#include "core/hash_table.hpp"

#include <algorithm>

#include "core/costs.hpp"

namespace chaos::core {

IndexHashTable::IndexHashTable(GlobalIndex owned_count) : owned_(owned_count) {
  CHAOS_CHECK(owned_count >= 0);
  index_.assign(64, -1);
}

void IndexHashTable::grow() {
  std::vector<std::int32_t> old = std::move(index_);
  index_.assign(old.size() * 2, -1);
  const std::size_t mask = index_.size() - 1;
  for (std::int32_t id : old) {
    if (id < 0) continue;
    std::size_t at = static_cast<std::size_t>(
                         mix(entries_[static_cast<std::size_t>(id)].global)) &
                     mask;
    while (index_[at] >= 0) at = (at + 1) & mask;
    index_[at] = id;
  }
}

const IndexHashTable::Entry* IndexHashTable::find(GlobalIndex g) const {
  const std::size_t at = probe(g, mix(g));
  if (index_[at] < 0) return nullptr;
  return &entries_[static_cast<std::size_t>(index_[at])];
}

Stamp IndexHashTable::allocate_stamp() {
  CHAOS_CHECK(free_stamps_ != 0, "all 64 stamps in use; clear one first");
  // Lowest free bit — this recycles a just-cleared stamp, as the paper's
  // CHARMM parallelization does after each non-bonded list update.
  const Stamp stamp = free_stamps_ & (~free_stamps_ + 1);
  free_stamps_ &= ~stamp;
  return stamp;
}

Stamp IndexHashTable::hash(sim::Comm& comm, const TranslationTable& table,
                           std::span<GlobalIndex> indices) {
  const Stamp stamp = allocate_stamp();
  enter_translated(comm, table, indices, stamp, indices.size());
  return stamp;
}

bool IndexHashTable::rehash(sim::Comm& comm, const TranslationTable& table,
                            Stamp stamp, std::span<GlobalIndex> refs,
                            std::span<const std::uint32_t> slots,
                            std::span<const GlobalIndex> old_values,
                            std::span<const GlobalIndex> values) {
  CHAOS_CHECK((free_stamps_ & stamp) == 0 && refs.size() == values.size() &&
                  slots.size() == old_values.size(),
              "rehash needs a stamp in use and a matching delta");
  // clear_stamp + hash() would take the lowest free bit.
  if ((free_stamps_ & (stamp - 1)) != 0) return false;

  // Count references per local index; an entry whose last reference was a
  // changed slot loses the stamp, through one prefetched probe.
  std::vector<std::uint32_t> uses(static_cast<std::size_t>(local_extent()), 0);
  for (const GlobalIndex l : refs) ++uses[static_cast<std::size_t>(l)];
  std::vector<std::size_t> gone;  // delta positions of those slots
  for (std::size_t i = 0; i < slots.size(); ++i)
    if (--uses[static_cast<std::size_t>(refs[slots[i]])] == 0)
      gone.push_back(i);
  prefetched(
      gone.size(), [&](std::size_t j) { return old_values[gone[j]]; },
      [&](std::size_t j, std::uint64_t h) {
        const std::size_t i = gone[j];
        const std::int32_t id = index_[probe(old_values[i], h)];
        CHAOS_ASSERT(id >= 0 && entries_[static_cast<std::size_t>(id)]
                                        .local_index == refs[slots[i]],
                     "delta's old value does not match the localized "
                     "reference");
        entries_[static_cast<std::size_t>(id)].stamps &= ~stamp;
      });

  std::vector<GlobalIndex> fresh(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) fresh[i] = values[slots[i]];
  enter_translated(comm, table, fresh, stamp, refs.size());
  // A full pass checks the load once more after the last changed slot.
  if (refs.size() > (slots.empty() ? 0 : slots.back() + std::size_t{1}) &&
      entries_.size() * 10 >= index_.size() * 7)
    grow();
  for (std::size_t i = 0; i < slots.size(); ++i) refs[slots[i]] = fresh[i];
  return true;
}

void IndexHashTable::enter_translated(sim::Comm& comm,
                                      const TranslationTable& table,
                                      std::span<GlobalIndex> refs, Stamp stamp,
                                      std::size_t total) {
  const std::size_t first_new = entries_.size();

  // One probe per reference; new entries wait for their Home.
  std::vector<GlobalIndex> unknown;
  enter(refs, stamp, [&](std::size_t, GlobalIndex g) {
    unknown.push_back(g);
    return Entry{g, Home{}, -1, stamp};
  });
  const std::uint64_t hits = total - unknown.size();
  stats_.hits += total - refs.size();
  comm.charge_work(static_cast<double>(hits) * costs::kHashHit +
                   static_cast<double>(unknown.size()) * costs::kHashInsert);

  // Batch-translate the new indices (collective when the translation table
  // is distributed; every rank participates even with zero unknowns).
  std::vector<Home> homes = table.lookup(comm, unknown);
  stats_.translations += unknown.size();
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    Entry& e = entries_[first_new + i];
    e.home = homes[i];
    CHAOS_CHECK(e.home.proc >= 0,
                "indirection array references a deleted (tombstoned) element");
    e.local_index = (e.home.proc == comm.rank()) ? e.home.offset
                                                 : owned_ + next_ghost_slot_++;
  }

  // Fix-up: references to entries inserted by this call.
  for (GlobalIndex& g : refs)
    if (g < 0) g = entries_[static_cast<std::size_t>(-(g + 1))].local_index;
}

void IndexHashTable::clear_stamp(Stamp stamp) {
  CHAOS_CHECK(stamp != 0 && (stamp & (stamp - 1)) == 0,
              "clear_stamp takes a single stamp bit");
  CHAOS_CHECK((free_stamps_ & stamp) == 0, "stamp is not currently in use");
  for (Entry& e : entries_) e.stamps &= ~stamp;
  free_stamps_ |= stamp;
}

void IndexHashTable::compact() {
  std::vector<Entry> survivors;
  survivors.reserve(entries_.size());
  next_ghost_slot_ = 0;
  for (Entry& e : entries_) {
    if (e.stamps == 0) continue;
    if (e.home.proc >= 0 && e.local_index >= owned_)
      e.local_index = owned_ + next_ghost_slot_++;
    survivors.push_back(e);
  }
  entries_ = std::move(survivors);
  build_index(entries_.size());
}

void IndexHashTable::build_index(std::size_t load) {
  std::size_t cap = 64;
  while (load * 10 >= cap * 7) cap *= 2;
  index_.assign(cap, -1);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    std::size_t at = static_cast<std::size_t>(mix(entries_[id].global)) & mask;
    while (index_[at] >= 0) at = (at + 1) & mask;
    index_[at] = static_cast<std::int32_t>(id);
  }
}

void IndexHashTable::index_seeded(std::uint64_t refs,
                                  std::uint64_t reused_homes,
                                  std::size_t load) {
  CHAOS_CHECK(stats_.inserts == 0 && refs >= entries_.size() &&
                  load <= entries_.size(),
              "index_seeded finishes the seeding of a fresh table");
  stats_.inserts = entries_.size();
  stats_.hits = refs - entries_.size();
  stats_.reused_homes = reused_homes;
  build_index(load);
}

void IndexHashTable::permute_ghosts(
    std::span<const GlobalIndex> new_slot_of_old) {
  CHAOS_CHECK(static_cast<GlobalIndex>(new_slot_of_old.size()) ==
                  next_ghost_slot_,
              "ghost permutation does not cover the assigned slots");
  for (Entry& e : entries_) {
    if (e.local_index < owned_) continue;
    const GlobalIndex ord = e.local_index - owned_;
    CHAOS_CHECK(ord < next_ghost_slot_, "ghost slot outside assigned range");
    const GlobalIndex to = new_slot_of_old[static_cast<std::size_t>(ord)];
    CHAOS_CHECK(to >= owned_ && to < owned_ + next_ghost_slot_,
                "ghost permutation value outside the ghost region");
    e.local_index = to;
  }
}

std::size_t IndexHashTable::live_entries() const {
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (e.stamps != 0) ++n;
  return n;
}

}  // namespace chaos::core
