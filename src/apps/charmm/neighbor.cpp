#include "apps/charmm/neighbor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "apps/charmm/forces.hpp"
#include "util/check.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace chaos::charmm {

namespace {

/// Cell grid in CSR form: cell c holds the atoms id[start[c] .. start[c+1]),
/// ascending, with their coordinates alongside in x/y/z (padded by 3 so a
/// 4-lane load at a cell's last atom stays in bounds).
struct CellGrid {
  int n;        // cells per dimension
  double cell;  // cell edge
  std::vector<std::size_t> start;
  std::vector<GlobalIndex> id;
  std::vector<double> x, y, z;

  CellGrid(std::span<const part::Point3> pos, double cutoff, double box)
      : n(std::max(1, static_cast<int>(std::floor(box / cutoff)))),
        cell(box / n),
        start(static_cast<size_t>(n) * n * n + 1, 0),
        id(pos.size()),
        x(pos.size() + 3),
        y(x),
        z(x) {
    std::vector<std::size_t> cell_of(pos.size());
    for (std::size_t i = 0; i < pos.size(); ++i) {
      cell_of[i] = index_of(pos[i]);
      ++start[cell_of[i] + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      const std::size_t at = fill[cell_of[i]]++;
      id[at] = static_cast<GlobalIndex>(i);
      x[at] = pos[i].x;
      y[at] = pos[i].y;
      z[at] = pos[i].z;
    }
  }

  int coord(double v) const {
    int c = static_cast<int>(std::floor(v / cell));
    return std::min(std::max(c, 0), n - 1);
  }

  std::size_t index_of(const part::Point3& p) const {
    return static_cast<size_t>(coord(p.x)) +
           static_cast<size_t>(n) *
               (static_cast<size_t>(coord(p.y)) +
                static_cast<size_t>(n) * static_cast<size_t>(coord(p.z)));
  }

  /// The 27 cells around p's cell, wrapped periodically; a grid with n <= 2
  /// cells per dimension visits some cells more than once.
  template <typename Visit>
  void for_each_neighbor_cell(const part::Point3& p, Visit&& visit) const {
    const int cx = coord(p.x);
    const int cy = coord(p.y);
    const int cz = coord(p.z);
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          visit(static_cast<size_t>((cx + dx + n) % n) +
                static_cast<size_t>(n) *
                    (static_cast<size_t>((cy + dy + n) % n) +
                     static_cast<size_t>(n) *
                         static_cast<size_t>((cz + dz + n) % n)));
  }
};

void set_bit(std::uint64_t* bits, GlobalIndex j) {
  bits[j / 64] |= std::uint64_t{1} << (j % 64);
}

/// Sets the bit of id[k] for every k in [k0, k1) within the cutoff of p.
void mark_within_scalar(const CellGrid& g, std::size_t k0, std::size_t k1,
                        const part::Point3& p, double cut2, double box,
                        std::uint64_t* bits) {
  for (std::size_t k = k0; k < k1; ++k) {
    const part::Vec3 d = min_image(p, {g.x[k], g.y[k], g.z[k]}, box);
    if (d.dot(d) <= cut2) set_bit(bits, g.id[k]);
  }
}

#if defined(__x86_64__)
// The same test in 4 lanes, 64 candidates at a time: the lane results
// collect into one hit mask, and only its set bits touch the bitmap. A
// wrap adds or subtracts box through an and-mask, which may turn a -0.0
// lane into +0.0; squaring erases the difference.
[[gnu::target("avx2")]] void mark_within_avx2(
    const CellGrid& g, std::size_t k0, std::size_t k1, const part::Point3& p,
    double cut2, double box, std::uint64_t* bits) {
  const __m256d vbox = _mm256_set1_pd(box);
  const __m256d half = _mm256_set1_pd(box / 2);
  const __m256d neg_half = _mm256_set1_pd(-box / 2);
  const __m256d p3[3] = {_mm256_set1_pd(p.x), _mm256_set1_pd(p.y),
                         _mm256_set1_pd(p.z)};
  const double* const c3[3] = {g.x.data(), g.y.data(), g.z.data()};
  for (std::size_t base = k0; base < k1; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, k1 - base);
    std::uint64_t hits = 0;
    for (std::size_t k = 0; k < len; k += 4) {
      __m256d r2 = _mm256_setzero_pd();  // +0.0 + dx*dx is exact
      for (int c = 0; c < 3; ++c) {
        __m256d d = _mm256_sub_pd(p3[c], _mm256_loadu_pd(c3[c] + base + k));
        d = _mm256_sub_pd(
            d, _mm256_and_pd(_mm256_cmp_pd(d, half, _CMP_GT_OQ), vbox));
        d = _mm256_add_pd(
            d, _mm256_and_pd(_mm256_cmp_pd(d, neg_half, _CMP_LT_OQ), vbox));
        r2 = _mm256_add_pd(r2, _mm256_mul_pd(d, d));
      }
      hits |= static_cast<std::uint64_t>(_mm256_movemask_pd(_mm256_cmp_pd(
                  r2, _mm256_set1_pd(cut2), _CMP_LE_OQ)))
              << k;
    }
    if (len < 64) hits &= (std::uint64_t{1} << len) - 1;
    for (; hits != 0; hits &= hits - 1)
      set_bit(bits, g.id[base + static_cast<size_t>(std::countr_zero(hits))]);
  }
}
#endif

}  // namespace

std::vector<double> estimate_atom_load(std::span<const part::Point3> all_pos,
                                       std::span<const GlobalIndex> rows,
                                       double cutoff, double box) {
  CHAOS_CHECK(cutoff > 0 && box > 0);
  // A fine grid (cell edge ~ cutoff/4) so the 3x3x3 window resolves local
  // density variations; with cell edge = cutoff the window can degenerate
  // to the whole box and the estimate becomes uniform.
  const CellGrid grid(all_pos, cutoff / 4.0, box);
  std::vector<double> load;
  load.reserve(rows.size());
  for (GlobalIndex gi : rows) {
    CHAOS_CHECK(gi >= 0 && static_cast<std::size_t>(gi) < all_pos.size());
    double count = 0;
    grid.for_each_neighbor_cell(
        all_pos[static_cast<size_t>(gi)], [&](std::size_t c) {
          count += static_cast<double>(grid.start[c + 1] - grid.start[c]);
        });
    load.push_back(1.0 + count);
  }
  return load;
}

NonbondedList build_nonbonded_list(
    std::span<const part::Point3> all_pos,
    std::span<const GlobalIndex> rows, double cutoff, double box,
    NeighborBuildStats* stats,
    std::span<const std::pair<GlobalIndex, GlobalIndex>> exclusions) {
  CHAOS_CHECK(cutoff > 0 && box > 0);
  const CellGrid grid(all_pos, cutoff, box);
  const double cut2 = cutoff * cutoff;
  const auto n = static_cast<GlobalIndex>(all_pos.size());
#if defined(__x86_64__)
  const auto mark_within =
      host_has_avx2() ? &mark_within_avx2 : &mark_within_scalar;
#else
  const auto mark_within = &mark_within_scalar;
#endif

  std::vector<std::pair<GlobalIndex, GlobalIndex>> excl(exclusions.begin(),
                                                        exclusions.end());
  std::sort(excl.begin(), excl.end());

  NonbondedList list;
  list.inblo.reserve(rows.size() + 1);
  list.inblo.push_back(0);
  std::size_t candidates = 0;

  // Partners of the current row as a bitmap over atom ids: it deduplicates
  // repeated cells and yields the partners in ascending order.
  std::vector<std::uint64_t> bits((all_pos.size() + 63) / 64, 0);
  for (GlobalIndex gi : rows) {
    CHAOS_CHECK(gi >= 0 && gi < n);
    const part::Point3& xi = all_pos[static_cast<size_t>(gi)];
    grid.for_each_neighbor_cell(xi, [&](std::size_t c) {
      // Half list: a cell's candidates start past gi.
      const GlobalIndex* first = grid.id.data() + grid.start[c];
      const GlobalIndex* last = grid.id.data() + grid.start[c + 1];
      const GlobalIndex* from = std::upper_bound(first, last, gi);
      candidates += static_cast<std::size_t>(last - from);
      mark_within(grid, static_cast<size_t>(from - grid.id.data()),
                  grid.start[c + 1], xi, cut2, box, bits.data());
    });
    // The excluded partners of gi, (gi, j) with gi < j, leave the bitmap.
    for (auto e = std::upper_bound(excl.begin(), excl.end(), std::pair{gi, gi});
         e != excl.end() && e->first == gi && e->second < n; ++e)
      bits[static_cast<size_t>(e->second / 64)] &=
          ~(std::uint64_t{1} << (e->second % 64));
    for (auto w = static_cast<size_t>(gi / 64); w < bits.size(); ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
        list.jnb.push_back(static_cast<GlobalIndex>(w * 64) +
                           std::countr_zero(word));
      bits[w] = 0;
    }
    list.inblo.push_back(static_cast<GlobalIndex>(list.jnb.size()));
  }

  if (stats) {
    stats->candidates_examined = candidates;
    stats->pairs_kept = list.jnb.size();
  }
  return list;
}

}  // namespace chaos::charmm
