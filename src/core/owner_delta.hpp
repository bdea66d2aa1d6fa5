// Owner deltas between two distribution epochs (cross-epoch schedule reuse).
//
// The paper's central amortization claim is that adaptive codes *reuse*
// inspector products across mesh adaptations. The pivot for reuse after a
// repartition is the owner delta: the set of elements whose owning
// processor changed between the old and the new map array. Everything the
// cross-epoch machinery does — patching the translation table, carrying
// ghost assignments forward, revalidating cached schedules — keys on two
// per-element predicates this descriptor answers in O(1), from one state
// byte per global:
//
//   owner_moved(g)  the owning processor of g changed, so its data must
//                   migrate and every schedule touching it is stale;
//   home_stable(g)  neither the owner NOR the local offset of g changed,
//                   so its translation (Home) carries forward verbatim and
//                   schedules referencing it keep valid send/recv indices.
//
// home_stable is strictly stronger than !owner_moved: the CHAOS convention
// assigns local offsets in ascending global-index order per owner, so an
// element that stays put still shifts offset when an earlier element moves
// in or out of its processor. Repartitions that move boundary regions
// (chain/slab adjustments — the common adaptive case) leave most
// processors' offset sequences untouched; uniformly scattered moves
// destabilize nearly everything, and the cross-epoch path then degrades
// gracefully to a cold rebuild (the randomized equivalence suite covers
// both regimes).
//
// Dynamic index spaces: a map entry of -1 is a tombstone — the global id
// exists in the numbering but no processor owns it, it holds no data, and
// its Home is {-1,-1}. compute_dynamic() compares maps of *different*
// sizes and additionally records births (hole/tail -> owned) and deaths
// (owned -> hole). Deleted and born elements are always home-unstable;
// owner_moved covers only live->live moves. Surviving global ids never
// renumber, so every stable-Home guarantee above carries over unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/translation_table.hpp"

namespace chaos::core {

class OwnerDelta {
 public:
  struct Move {
    GlobalIndex global = -1;
    int from = -1;
    int to = -1;

    friend bool operator==(const Move&, const Move&) = default;
  };

  /// Compare two full map arrays (identical on every rank, as produced by
  /// the parallel partitioners) and record every owner move plus every
  /// home-unstable element. Pure local computation; the caller charges the
  /// O(n) scan (costs::kDeltaScan per element). Maps must cover the same
  /// element universe; -1 tombstones are tolerated (a hole staying a hole
  /// contributes nothing, a hole changing liveness is a birth/death).
  static OwnerDelta compute(std::span<const int> old_map,
                            std::span<const int> new_map);

  /// Like compute(), but the maps may differ in size: globals beyond a
  /// map's end are treated as holes, so growth appends births and
  /// truncation records deaths. global_size() reports the *new* size.
  static OwnerDelta compute_dynamic(std::span<const int> old_map,
                                    std::span<const int> new_map);

  GlobalIndex global_size() const { return n_; }
  const std::vector<Move>& moves() const { return moves_; }
  GlobalIndex moved_count() const {
    return static_cast<GlobalIndex>(moves_.size());
  }
  GlobalIndex unstable_count() const { return unstable_; }

  /// Globals that were live in the old epoch and are holes (or beyond the
  /// end) in the new one. Ascending.
  const std::vector<GlobalIndex>& deleted_globals() const { return deleted_; }
  /// Globals that were holes (or beyond the end) in the old epoch and are
  /// live in the new one; Move::from is -1, Move::to the birth owner.
  const std::vector<Move>& born() const { return born_; }
  GlobalIndex deleted_count() const {
    return static_cast<GlobalIndex>(deleted_.size());
  }
  GlobalIndex born_count() const {
    return static_cast<GlobalIndex>(born_.size());
  }
  /// Does this delta change the set of live elements (any birth or death)?
  bool is_dynamic() const { return !deleted_.empty() || !born_.empty(); }

  /// Fraction of elements whose owner did not change (1.0 = no movement).
  double owner_stability() const {
    return n_ == 0 ? 1.0
                   : 1.0 - static_cast<double>(moves_.size()) /
                               static_cast<double>(n_);
  }

  /// Did g's owning processor change (live in both epochs)?
  bool owner_moved(GlobalIndex g) const { return (state(g) & kMoved) != 0; }

  /// Was g deleted (live in the old epoch, a hole or out of range now)?
  bool deleted(GlobalIndex g) const { return (state(g) & kDeleted) != 0; }

  /// Was g born (a hole or out of range in the old epoch, live now)?
  bool is_born(GlobalIndex g) const { return (state(g) & kBorn) != 0; }

  /// Is g's Home (owner AND local offset) identical in both epochs?
  /// Born and deleted elements are never home-stable.
  bool home_stable(GlobalIndex g) const {
    return (state(g) & kUnstable) == 0;
  }

  /// Approximate heap footprint, for registry memory accounting.
  std::size_t footprint_bytes() const {
    return moves_.capacity() * sizeof(Move) +
           born_.capacity() * sizeof(Move) +
           deleted_.capacity() * sizeof(GlobalIndex) +
           state_.capacity() * sizeof(std::uint8_t);
  }

 private:
  static OwnerDelta walk(std::span<const int> old_map,
                         std::span<const int> new_map);

  // Per-global state bits; globals past both maps' ends read as 0.
  enum : std::uint8_t { kMoved = 1, kDeleted = 2, kBorn = 4, kUnstable = 8 };
  std::uint8_t state(GlobalIndex g) const {
    return g >= 0 && g < static_cast<GlobalIndex>(state_.size())
               ? state_[static_cast<std::size_t>(g)]
               : std::uint8_t{0};
  }

  GlobalIndex n_ = 0;
  GlobalIndex unstable_ = 0;
  std::vector<Move> moves_;            // ascending global, live->live
  std::vector<Move> born_;             // ascending global, from == -1
  std::vector<GlobalIndex> deleted_;   // ascending global
  std::vector<std::uint8_t> state_;    // per global over max(old, new) size
};

}  // namespace chaos::core
