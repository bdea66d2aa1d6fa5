// Test oracles for the CHARMM host kernels: the per-pair non-bonded loop
// the row kernel replaced, and the bucket-of-vectors cell-list build with
// a per-row sort that build_nonbonded_list and estimate_atom_load replaced.
// The shipped kernels must reproduce them bitwise — forces, lists and
// counts (tests/apps/charmm_kernels_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "apps/charmm/forces.hpp"
#include "apps/charmm/neighbor.hpp"

namespace chaos::testing_support {

using charmm::GlobalIndex;

/// One row of the original non-bonded loop: one pair at a time, acc[i]
/// stored back after every pair.
inline void reference_nonbonded_row(const part::Point3* pos, part::Vec3* acc,
                                    std::size_t i, const GlobalIndex* js,
                                    std::size_t n, double cutoff,
                                    double box) {
  for (std::size_t k = 0; k < n; ++k) {
    const auto j = static_cast<std::size_t>(js[k]);
    const part::Vec3 f = charmm::nonbonded_force(pos[i], pos[j], cutoff, box);
    acc[i] = acc[i] + f;
    acc[j] = acc[j] - f;
  }
}

namespace reference_detail {

struct CellGrid {
  int n = 1;          // cells per dimension
  double cell = 1.0;  // cell edge
  std::vector<std::vector<GlobalIndex>> buckets;

  CellGrid(std::span<const part::Point3> pos, double cutoff, double box) {
    n = std::max(1, static_cast<int>(std::floor(box / cutoff)));
    cell = box / n;
    buckets.resize(static_cast<size_t>(n) * n * n);
    for (std::size_t i = 0; i < pos.size(); ++i)
      buckets[index_of(pos[i])].push_back(static_cast<GlobalIndex>(i));
  }

  int coord(double x) const {
    int c = static_cast<int>(std::floor(x / cell));
    return std::min(std::max(c, 0), n - 1);
  }

  std::size_t index_of(const part::Point3& p) const {
    return static_cast<size_t>(coord(p.x)) +
           static_cast<size_t>(n) *
               (static_cast<size_t>(coord(p.y)) +
                static_cast<size_t>(n) * static_cast<size_t>(coord(p.z)));
  }

  const std::vector<GlobalIndex>& bucket(int bx, int by, int bz) const {
    return buckets[static_cast<size_t>(bx) +
                   static_cast<size_t>(n) *
                       (static_cast<size_t>(by) +
                        static_cast<size_t>(n) * static_cast<size_t>(bz))];
  }
};

inline double min_image(double d, double box) {
  if (d > box / 2) d -= box;
  if (d < -box / 2) d += box;
  return d;
}

inline double distance2(const part::Point3& a, const part::Point3& b,
                        double box) {
  const double dx = min_image(a.x - b.x, box);
  const double dy = min_image(a.y - b.y, box);
  const double dz = min_image(a.z - b.z, box);
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace reference_detail

inline std::vector<double> reference_estimate_atom_load(
    std::span<const part::Point3> all_pos, std::span<const GlobalIndex> rows,
    double cutoff, double box) {
  reference_detail::CellGrid grid(all_pos, cutoff / 4.0, box);
  std::vector<double> load;
  load.reserve(rows.size());
  for (GlobalIndex gi : rows) {
    const part::Point3& xi = all_pos[static_cast<size_t>(gi)];
    const int cx = grid.coord(xi.x);
    const int cy = grid.coord(xi.y);
    const int cz = grid.coord(xi.z);
    double count = 0;
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          count += static_cast<double>(grid.bucket((cx + dx + grid.n) % grid.n,
                                                   (cy + dy + grid.n) % grid.n,
                                                   (cz + dz + grid.n) % grid.n)
                                           .size());
    load.push_back(1.0 + count);
  }
  return load;
}

inline charmm::NonbondedList reference_build_nonbonded_list(
    std::span<const part::Point3> all_pos, std::span<const GlobalIndex> rows,
    double cutoff, double box, charmm::NeighborBuildStats* stats = nullptr,
    std::span<const std::pair<GlobalIndex, GlobalIndex>> exclusions = {}) {
  reference_detail::CellGrid grid(all_pos, cutoff, box);
  const double cut2 = cutoff * cutoff;

  std::vector<std::pair<GlobalIndex, GlobalIndex>> excl(exclusions.begin(),
                                                        exclusions.end());
  std::sort(excl.begin(), excl.end());
  auto excluded = [&excl](GlobalIndex i, GlobalIndex j) {
    return std::binary_search(excl.begin(), excl.end(), std::make_pair(i, j));
  };

  charmm::NonbondedList list;
  list.inblo.reserve(rows.size() + 1);
  list.inblo.push_back(0);
  std::size_t candidates = 0;

  std::vector<GlobalIndex> partners;
  for (GlobalIndex gi : rows) {
    partners.clear();
    const part::Point3& xi = all_pos[static_cast<size_t>(gi)];
    const int cx = grid.coord(xi.x);
    const int cy = grid.coord(xi.y);
    const int cz = grid.coord(xi.z);
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          // Periodic wrap of the cell index.
          const auto& bucket = grid.bucket((cx + dx + grid.n) % grid.n,
                                           (cy + dy + grid.n) % grid.n,
                                           (cz + dz + grid.n) % grid.n);
          for (GlobalIndex gj : bucket) {
            if (gj <= gi) continue;  // half list
            ++candidates;
            if (reference_detail::distance2(
                    xi, all_pos[static_cast<size_t>(gj)], box) <= cut2)
              partners.push_back(gj);
          }
        }
      }
    }
    std::sort(partners.begin(), partners.end());
    // With a coarse grid (n <= 2 per dimension) the 27-cell sweep can visit
    // the same bucket more than once; drop duplicates.
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    if (!excl.empty())
      partners.erase(std::remove_if(partners.begin(), partners.end(),
                                    [&](GlobalIndex gj) {
                                      return excluded(gi, gj);
                                    }),
                     partners.end());
    list.jnb.insert(list.jnb.end(), partners.begin(), partners.end());
    list.inblo.push_back(static_cast<GlobalIndex>(list.jnb.size()));
  }

  if (stats) {
    stats->candidates_examined = candidates;
    stats->pairs_kept = list.jnb.size();
  }
  return list;
}

}  // namespace chaos::testing_support
