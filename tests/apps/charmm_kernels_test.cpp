// Bitwise oracle tests of the CHARMM host kernels against the loops they
// replaced (tests/support/reference_charmm.hpp):
//   - both non-bonded row bodies (portable scalar, 4-lane AVX2) and the
//     dispatched kernel against the per-pair loop, on random rows built
//     around the edge cases: every tail length, pairs at exactly the
//     cutoff, coincident atoms, displacements of exactly +-box/2, and -0.0
//     accumulators;
//   - the CSR cell-list build against the sorting build: lists, candidate
//     counts and kept pairs over 1x1x1 .. 4x4x4 grids, unsorted row
//     subsets, exclusions and atoms on cell faces; the load estimate
//     against the bucket-grid one.
// Seed counts follow the shared --seeds=N knob (support/seeds.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <set>

#include "apps/charmm/forces.hpp"
#include "apps/charmm/neighbor.hpp"
#include "apps/charmm/system.hpp"
#include "support/reference_charmm.hpp"
#include "support/seeds.hpp"
#include "util/rng.hpp"

namespace chaos::charmm {
namespace {

namespace ts = chaos::testing_support;

using RowBody = void (*)(const part::Point3*, part::Vec3*, std::size_t,
                         const GlobalIndex*, std::size_t, double, double);

/// Bit-pattern equality: tells -0.0 from +0.0.
bool same_bits(const std::vector<part::Vec3>& a,
               const std::vector<part::Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(part::Vec3)) == 0;
}

struct RowCase {
  double box = 0;
  double cutoff = 0;
  std::vector<part::Point3> pos;
  std::vector<part::Vec3> acc;
  std::size_t i = 0;
  std::vector<GlobalIndex> js;
};

/// A random row whose partners sit at the kernel's edge cases. Coordinates
/// are multiples of 1/64, so the displacements below are exact.
RowCase random_row(std::uint64_t seed) {
  Rng rng(seed);
  RowCase c;
  c.box = rng.below(2) ? 16.0 : 8.0;
  c.cutoff = rng.below(2) ? 5.0 : 3.5;
  const std::size_t n = rng.below(4) == 0 ? 10 + rng.below(60) : rng.below(10);
  const std::size_t atoms = n + 1 + rng.below(4);
  const auto coord = [&] {
    return static_cast<double>(rng.below(static_cast<std::uint64_t>(
               64 * c.box))) / 64;
  };
  for (std::size_t a = 0; a < atoms; ++a)
    c.pos.push_back({coord(), coord(), coord()});
  const auto component = [&] {
    switch (rng.below(4)) {
      case 0: return -0.0;
      case 1: return 0.0;
      default: return rng.uniform(-3.0, 3.0);
    }
  };
  for (std::size_t a = 0; a < atoms; ++a)
    c.acc.push_back({component(), component(), component()});

  c.i = rng.below(atoms);
  for (std::size_t a = 0; a < atoms; ++a)
    if (a != c.i) c.js.push_back(static_cast<GlobalIndex>(a));
  std::shuffle(c.js.begin(), c.js.end(), rng);
  c.js.resize(n);

  const part::Point3 xi = c.pos[c.i];
  for (GlobalIndex j : c.js) {
    part::Point3& xj = c.pos[static_cast<size_t>(j)];
    const int axis = static_cast<int>(rng.below(3));
    const double sign = rng.below(2) ? 1.0 : -1.0;
    switch (rng.below(6)) {
      case 0:  // exactly at the cutoff: cut off
        xj = xi;
        xj[axis] += sign * c.cutoff;
        break;
      case 1:  // coincident: cut off
        xj = xi;
        break;
      case 2:  // +-box/2 (not wrapped) or one 1/64 step past it (wrapped)
        xj = xi;
        xj[axis] += sign * c.box / 2 +
                    static_cast<double>(rng.range(-1, 1)) / 64;
        break;
      case 3:  // close: strongly repulsive, hits the magnitude clamp
        xj = xi;
        for (int a = 0; a < 3; ++a)
          xj[a] += static_cast<double>(rng.range(-64, 64)) / 64;
        break;
      default:  // anywhere
        break;
    }
  }
  return c;
}

void expect_row_body_matches_per_pair_loop(RowBody body) {
  const std::uint64_t seeds = ts::seed_count(600);
  std::set<std::size_t> lengths;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const RowCase c = random_row(seed);
    std::vector<part::Vec3> want = c.acc;
    ts::reference_nonbonded_row(c.pos.data(), want.data(), c.i, c.js.data(),
                                c.js.size(), c.cutoff, c.box);
    std::vector<part::Vec3> got = c.acc;
    body(c.pos.data(), got.data(), c.i, c.js.data(), c.js.size(), c.cutoff,
         c.box);
    ASSERT_TRUE(same_bits(got, want))
        << "seed " << seed << ", row length " << c.js.size();
    lengths.insert(c.js.size());
  }
  if (seeds >= 100) {
    for (std::size_t n = 0; n <= 9; ++n)
      EXPECT_TRUE(lengths.count(n)) << "row length " << n << " never drawn";
  }
}

TEST(NonbondedRow, ScalarBodyBitwiseEqualsPerPairLoop) {
  expect_row_body_matches_per_pair_loop(&nonbonded_row_scalar);
}

TEST(NonbondedRow, Avx2BodyBitwiseEqualsPerPairLoop) {
  if (!host_has_avx2()) GTEST_SKIP() << "this CPU has no AVX2";
  expect_row_body_matches_per_pair_loop(&nonbonded_row_avx2);
}

TEST(NonbondedRow, DispatchedKernelBitwiseEqualsPerPairLoop) {
  expect_row_body_matches_per_pair_loop(&nonbonded_row);
}

TEST(NonbondedRow, FullSystemRowsBitwiseEqualPerPairLoop) {
  // The benchmark-scale system through its own list: every row, in list
  // order, accumulating into one array (partners' -f land between rows).
  const MolecularSystem sys = MolecularSystem::generate(SystemParams{});
  std::vector<GlobalIndex> rows(sys.size() / 4);
  std::iota(rows.begin(), rows.end(), GlobalIndex{0});
  const NonbondedList list = build_nonbonded_list(
      sys.pos, rows, sys.params.cutoff, sys.params.box, nullptr, sys.bonds);
  std::vector<part::Vec3> want(sys.size()), got(sys.size());
  for (std::size_t r = 0; r < list.rows(); ++r) {
    const auto len = static_cast<size_t>(list.inblo[r + 1] - list.inblo[r]);
    const GlobalIndex* js = list.jnb.data() + list.inblo[r];
    ts::reference_nonbonded_row(sys.pos.data(), want.data(),
                                static_cast<size_t>(rows[r]), js, len,
                                sys.params.cutoff, sys.params.box);
    nonbonded_row(sys.pos.data(), got.data(), static_cast<size_t>(rows[r]),
                  js, len, sys.params.cutoff, sys.params.box);
  }
  EXPECT_TRUE(same_bits(got, want));
}

struct ListCase {
  double box = 16.0;
  double cutoff = 0;
  std::vector<part::Point3> pos;
  std::vector<GlobalIndex> rows;
  std::vector<std::pair<GlobalIndex, GlobalIndex>> exclusions;
};

/// A random system on an n x n x n cell grid (n = 1 + seed % 4), with some
/// coordinates exactly on cell faces, some atoms exactly one cutoff or half
/// a box from another along an axis, a shuffled row subset, and random
/// exclusions (some reversed, some repeated). Coordinates and the cutoff
/// are multiples of 1/64, so those distances are exact.
ListCase random_list_case(std::uint64_t seed) {
  Rng rng(seed);
  ListCase c;
  const int cells = 1 + static_cast<int>(seed % 4);
  // floor(box / cutoff) == cells for each of these.
  c.cutoff = std::array{9.5, 6.25, 4.5, 3.75}[static_cast<size_t>(cells - 1)];
  const std::size_t n = 20 + rng.below(300);
  const double face = c.box / cells;
  const auto coord = [&] {
    return rng.below(4) == 0
               ? face * static_cast<double>(rng.below(
                            static_cast<std::uint64_t>(cells)))
               : static_cast<double>(rng.below(64 * 16)) / 64;
  };
  for (std::size_t a = 0; a < n; ++a) {
    part::Point3 p{coord(), coord(), coord()};
    if (a > 0 && rng.below(3) == 0) {
      p = c.pos[rng.below(a)];
      const int axis = static_cast<int>(rng.below(3));
      p[axis] += (rng.below(2) ? 1.0 : -1.0) *
                 (rng.below(2) ? c.cutoff : c.box / 2);
      if (p[axis] < 0) p[axis] += c.box;
      if (p[axis] >= c.box) p[axis] -= c.box;
    }
    c.pos.push_back(p);
  }
  for (GlobalIndex a = 0; a < static_cast<GlobalIndex>(n); ++a)
    if (rng.below(3) != 0) c.rows.push_back(a);
  std::shuffle(c.rows.begin(), c.rows.end(), rng);
  for (std::size_t e = rng.below(2 * n); e > 0; --e) {
    auto a = static_cast<GlobalIndex>(rng.below(n));
    auto b = static_cast<GlobalIndex>(rng.below(n));
    if (rng.below(8) != 0 && a > b) std::swap(a, b);
    c.exclusions.emplace_back(a, b);
    if (rng.below(8) == 0) c.exclusions.emplace_back(a, b);
  }
  return c;
}

void expect_list_matches_reference(const ListCase& c, std::uint64_t seed) {
  NeighborBuildStats got_stats, want_stats;
  const NonbondedList got = build_nonbonded_list(
      c.pos, c.rows, c.cutoff, c.box, &got_stats, c.exclusions);
  const NonbondedList want = ts::reference_build_nonbonded_list(
      c.pos, c.rows, c.cutoff, c.box, &want_stats, c.exclusions);
  EXPECT_EQ(got.inblo, want.inblo) << "seed " << seed;
  EXPECT_EQ(got.jnb, want.jnb) << "seed " << seed;
  EXPECT_EQ(got_stats.candidates_examined, want_stats.candidates_examined)
      << "seed " << seed;
  EXPECT_EQ(got_stats.pairs_kept, want_stats.pairs_kept) << "seed " << seed;
  EXPECT_EQ(estimate_atom_load(c.pos, c.rows, c.cutoff, c.box),
            ts::reference_estimate_atom_load(c.pos, c.rows, c.cutoff, c.box))
      << "seed " << seed;
}

TEST(NeighborBuild, RandomizedEqualsSortingBuild) {
  const std::uint64_t seeds = ts::seed_count(120);
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    expect_list_matches_reference(random_list_case(seed), seed);
    if (HasFailure()) return;
  }
}

TEST(NeighborBuild, FullSystemEqualsSortingBuild) {
  const MolecularSystem sys = MolecularSystem::generate(SystemParams{});
  ListCase c;
  c.box = sys.params.box;
  c.cutoff = sys.params.cutoff;
  c.pos = sys.pos;
  c.exclusions = sys.bonds;
  for (GlobalIndex a = static_cast<GlobalIndex>(sys.size()) - 1; a >= 0; a -= 7)
    c.rows.push_back(a);
  expect_list_matches_reference(c, 0);
}

}  // namespace
}  // namespace chaos::charmm
