// Fortran D / HPF data-decomposition support (paper §5.1), embedded in C++.
//
// The paper's declarations map as follows:
//   DECOMPOSITION reg(N)          -> Distribution size N (constructed below)
//   DISTRIBUTE reg(BLOCK)         -> Distribution::block(comm, N)
//   DISTRIBUTE reg(CYCLIC)        -> Distribution::cyclic(comm, N)
//   DISTRIBUTE irreg(map)         -> Distribution::irregular(comm, map)
//   ALIGN x, y WITH irreg         -> chaos::Array<T> (lang/array.hpp)
//                                    constructed over the same epoch
//
// A Distribution owns the translation table; executable re-DISTRIBUTE
// statements are expressed by adopting a new distribution epoch and
// remapping aligned arrays through one rt.plan_remap(from, to) schedule
// (rt.remap / Array::retarget) — Phase A/B of the runtime.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/owner_delta.hpp"
#include "core/remap.hpp"
#include "core/translation_table.hpp"
#include "sim/machine.hpp"

namespace chaos::lang {

using core::GlobalIndex;

class Distribution {
 public:
  /// DISTRIBUTE d(BLOCK)
  static Distribution block(sim::Comm& comm, GlobalIndex n) {
    std::vector<int> map(static_cast<size_t>(n));
    part::BlockLayout l(n > 0 ? n : 1, comm.size());
    for (GlobalIndex g = 0; g < n; ++g)
      map[static_cast<size_t>(g)] = l.owner(g);
    return Distribution(comm, std::move(map));
  }

  /// DISTRIBUTE d(CYCLIC)
  static Distribution cyclic(sim::Comm& comm, GlobalIndex n) {
    std::vector<int> map(static_cast<size_t>(n));
    part::CyclicLayout l(n, comm.size());
    for (GlobalIndex g = 0; g < n; ++g)
      map[static_cast<size_t>(g)] = l.owner(g);
    return Distribution(comm, std::move(map));
  }

  /// DISTRIBUTE d(map): irregular distribution from a maparray (map[g] =
  /// owning processor), e.g. as produced by a partitioner. The map must be
  /// identical on every rank.
  static Distribution irregular(sim::Comm& comm, std::span<const int> map) {
    return Distribution(comm, std::vector<int>(map.begin(), map.end()));
  }

  /// Irregular distribution whose translation table is *distributed*
  /// (paged): each rank stores one BLOCK page of the table and lookups for
  /// other pages communicate (paper §3.2.2). `map` must still be identical
  /// on every rank; only the table storage is paged.
  static Distribution irregular_paged(sim::Comm& comm,
                                      std::span<const int> map) {
    const GlobalIndex n = static_cast<GlobalIndex>(map.size());
    std::span<const int> slice;
    if (n > 0) {
      part::BlockLayout pages(n, comm.size());
      slice = map.subspan(static_cast<std::size_t>(pages.first(comm.rank())),
                          static_cast<std::size_t>(pages.size_of(comm.rank())));
    }
    return Distribution(core::TranslationTable::build_distributed(comm, slice),
                        std::vector<int>(map.begin(), map.end()));
  }

  /// Cross-epoch successor: derive this epoch's translation table from
  /// `old`'s by patching the owner delta's unstable entries instead of
  /// rebuilding (core::TranslationTable::patched). Same table mode as
  /// `old`; identical result to constructing cold from `new_map`.
  static Distribution patched(sim::Comm& comm, const Distribution& old,
                              std::vector<int> new_map,
                              const core::OwnerDelta& delta) {
    // Build the table before moving the map into the Distribution: function
    // arguments are indeterminately sequenced, so passing both in one call
    // could read a moved-from vector.
    core::TranslationTable table =
        core::TranslationTable::patched(comm, old.table(), new_map, delta);
    return Distribution(std::move(table), std::move(new_map));
  }

  GlobalIndex global_size() const { return table_.global_size(); }
  /// Live (non-tombstoned) elements; < global_size() when deletions left
  /// holes in the numbering (dynamic index spaces).
  GlobalIndex live_count() const { return table_.live_count(); }
  const core::TranslationTable& table() const { return table_; }

  /// The map array (map[g] = owning processor) the distribution was built
  /// from, identical on every rank. Retained so a successor epoch can
  /// compute the owner delta without re-deriving ownership from the table.
  const std::vector<int>& map() const { return map_; }

  GlobalIndex owned_count(int rank) const { return table_.owned_count(rank); }

  /// Global ids owned by `rank`, in local-offset order. Works in both
  /// table modes: a paged table cannot answer this (each rank holds one
  /// page), but the replicated map array can — offsets follow ascending
  /// global order per owner, so the filtered map IS the offset order.
  std::vector<GlobalIndex> owned_globals(int rank) const {
    if (table_.mode() == core::TranslationTable::Mode::kReplicated)
      return table_.owned_globals(rank);
    std::vector<GlobalIndex> out;
    out.reserve(static_cast<std::size_t>(owned_count(rank)));
    for (GlobalIndex g = 0; g < static_cast<GlobalIndex>(map_.size()); ++g)
      if (map_[static_cast<std::size_t>(g)] == rank) out.push_back(g);
    return out;
  }

  /// Monotone id distinguishing distribution epochs, for inspector-cache
  /// invalidation (every constructed Distribution gets a fresh id).
  std::uint64_t epoch() const { return epoch_; }

 private:
  Distribution(sim::Comm& comm, std::vector<int> map)
      : table_(core::TranslationTable::from_full_map(comm, map)),
        map_(std::move(map)),
        epoch_(next_epoch()) {}

  Distribution(core::TranslationTable table, std::vector<int> map)
      : table_(std::move(table)), map_(std::move(map)), epoch_(next_epoch()) {}

  static std::uint64_t next_epoch() {
    // Process-wide: caches are per-rank, but a Distribution may be created
    // on one thread and compared against one created on another (the same
    // hazard as IndirectionArray ids); a thread_local counter could hand
    // two distinct distributions the same epoch.
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  core::TranslationTable table_;
  std::vector<int> map_;
  std::uint64_t epoch_;
};

}  // namespace chaos::lang
