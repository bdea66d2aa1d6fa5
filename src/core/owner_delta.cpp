#include "core/owner_delta.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace chaos::core {

OwnerDelta OwnerDelta::compute(std::span<const int> old_map,
                               std::span<const int> new_map) {
  CHAOS_CHECK(old_map.size() == new_map.size(),
              "owner delta requires maps over the same element set");
  return walk(old_map, new_map);
}

OwnerDelta OwnerDelta::compute_dynamic(std::span<const int> old_map,
                                       std::span<const int> new_map) {
  return walk(old_map, new_map);
}

OwnerDelta OwnerDelta::walk(std::span<const int> old_map,
                            std::span<const int> new_map) {
  OwnerDelta d;
  const GlobalIndex no = static_cast<GlobalIndex>(old_map.size());
  const GlobalIndex nn = static_cast<GlobalIndex>(new_map.size());
  d.n_ = nn;

  // Walk both maps once, tracking per-proc next offsets under each epoch:
  // the offset an element gets is the count of lower-indexed *live*
  // elements with the same owner (the CHAOS ascending-global-order
  // convention); tombstones (-1) hold no offset. A global beyond a map's
  // end is a hole in that epoch.
  int nprocs = 0;
  for (int p : old_map) nprocs = std::max(nprocs, p + 1);
  for (int p : new_map) nprocs = std::max(nprocs, p + 1);
  std::vector<GlobalIndex> next_old(static_cast<std::size_t>(nprocs), 0);
  std::vector<GlobalIndex> next_new(static_cast<std::size_t>(nprocs), 0);
  d.state_.assign(static_cast<std::size_t>(std::max(no, nn)), 0);

  for (GlobalIndex g = 0; g < std::max(no, nn); ++g) {
    const int po = g < no ? old_map[static_cast<std::size_t>(g)] : -1;
    const int pn = g < nn ? new_map[static_cast<std::size_t>(g)] : -1;
    CHAOS_CHECK(po >= -1 && pn >= -1, "map array names a negative processor");
    if (po < 0 && pn < 0) continue;  // hole in both epochs
    if (po >= 0 && pn >= 0) {
      const GlobalIndex oo = next_old[static_cast<std::size_t>(po)]++;
      const GlobalIndex on = next_new[static_cast<std::size_t>(pn)]++;
      if (po != pn) {
        d.moves_.push_back(Move{g, po, pn});
        d.state_[static_cast<std::size_t>(g)] = kMoved | kUnstable;
      } else if (oo != on) {
        d.state_[static_cast<std::size_t>(g)] = kUnstable;
      }
    } else if (po >= 0) {  // death: owned -> hole
      next_old[static_cast<std::size_t>(po)]++;
      d.deleted_.push_back(g);
      d.state_[static_cast<std::size_t>(g)] = kDeleted | kUnstable;
    } else {  // birth: hole -> owned
      next_new[static_cast<std::size_t>(pn)]++;
      d.born_.push_back(Move{g, -1, pn});
      d.state_[static_cast<std::size_t>(g)] = kBorn | kUnstable;
    }
    if (d.state_[static_cast<std::size_t>(g)] & kUnstable) ++d.unstable_;
  }
  return d;
}

}  // namespace chaos::core
