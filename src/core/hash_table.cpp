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
  const std::size_t first_new = entries_.size();

  // One probe per reference; new entries wait for their Home.
  std::vector<GlobalIndex> unknown;
  const std::uint64_t hits =
      enter(indices, stamp, [&](std::size_t, GlobalIndex g) {
        unknown.push_back(g);
        return Entry{g, Home{}, -1, stamp};
      });
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
  for (GlobalIndex& g : indices)
    if (g < 0) g = entries_[static_cast<std::size_t>(-(g + 1))].local_index;
  return stamp;
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
  // Rebuild the open-addressed index.
  std::size_t cap = 64;
  while (entries_.size() * 10 >= cap * 7) cap *= 2;
  index_.assign(cap, -1);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    std::size_t at = static_cast<std::size_t>(mix(entries_[id].global)) & mask;
    while (index_[at] >= 0) at = (at + 1) & mask;
    index_[at] = static_cast<std::int32_t>(id);
  }
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
