// Owner-delta predicates: the O(1) per-element answers must match their
// definitions over the delta's sorted lists (moves, births, deaths) and
// over the two epochs' Homes, on random static and dynamic map pairs —
// growth, truncation and interior holes — including globals past either
// map's end.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/owner_delta.hpp"
#include "support/seeds.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

/// Home of every global under `map` (CHAOS convention: offsets ascend with
/// the global index per owner; -1 is a hole), padded with holes to `n`.
std::vector<Home> homes_of(const std::vector<int>& map, std::size_t n) {
  std::vector<Home> out(n);
  std::vector<GlobalIndex> next;
  for (std::size_t g = 0; g < map.size(); ++g) {
    const int p = map[g];
    if (p < 0) continue;
    if (next.size() <= static_cast<std::size_t>(p))
      next.resize(static_cast<std::size_t>(p) + 1, 0);
    out[g] = Home{p, next[static_cast<std::size_t>(p)]++};
  }
  return out;
}

bool listed(const std::vector<OwnerDelta::Move>& moves, GlobalIndex g) {
  return std::any_of(moves.begin(), moves.end(),
                     [&](const OwnerDelta::Move& m) { return m.global == g; });
}

void expect_predicates_match(const std::vector<int>& old_map,
                             const std::vector<int>& new_map,
                             const OwnerDelta& d) {
  const std::size_t n = std::max(old_map.size(), new_map.size());
  const std::vector<Home> before = homes_of(old_map, n);
  const std::vector<Home> after = homes_of(new_map, n);
  GlobalIndex unstable = 0;
  for (GlobalIndex g = -2; g < static_cast<GlobalIndex>(n) + 3; ++g) {
    SCOPED_TRACE("g=" + std::to_string(g));
    const bool in_range = g >= 0 && g < static_cast<GlobalIndex>(n);
    const Home h0 = in_range ? before[static_cast<std::size_t>(g)] : Home{};
    const Home h1 = in_range ? after[static_cast<std::size_t>(g)] : Home{};
    EXPECT_EQ(d.owner_moved(g), listed(d.moves(), g));
    EXPECT_EQ(d.is_born(g), listed(d.born(), g));
    EXPECT_EQ(d.deleted(g),
              std::binary_search(d.deleted_globals().begin(),
                                 d.deleted_globals().end(), g));
    EXPECT_EQ(d.home_stable(g), h0 == h1);
    // The lists themselves: live->live owner change, hole->live, live->hole.
    EXPECT_EQ(d.owner_moved(g), h0.proc >= 0 && h1.proc >= 0 &&
                                    h0.proc != h1.proc);
    EXPECT_EQ(d.is_born(g), h0.proc < 0 && h1.proc >= 0);
    EXPECT_EQ(d.deleted(g), h0.proc >= 0 && h1.proc < 0);
    if (in_range && h0 != h1) ++unstable;
  }
  EXPECT_EQ(d.unstable_count(), unstable);
  // The per-element state is counted.
  EXPECT_GE(d.footprint_bytes(), n);
}

std::vector<int> random_map(Rng& rng, std::size_t n, int P, double holes) {
  std::vector<int> map(n);
  for (int& p : map)
    p = rng.uniform() < holes
            ? -1
            : static_cast<int>(rng.below(static_cast<std::uint64_t>(P)));
  return map;
}

TEST(OwnerDelta, PredicatesMatchSortedListsOnStaticMaps) {
  const std::uint64_t seeds = testing_support::seed_count(30);
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    Rng rng(s);
    const int P = static_cast<int>(rng.range(1, 6));
    const auto n = static_cast<std::size_t>(rng.range(0, 300));
    const std::vector<int> old_map = random_map(rng, n, P, 0.0);
    std::vector<int> new_map = old_map;
    const double churn = rng.uniform();
    for (int& p : new_map)
      if (rng.uniform() < churn)
        p = static_cast<int>(rng.below(static_cast<std::uint64_t>(P)));
    const OwnerDelta d = OwnerDelta::compute(old_map, new_map);
    EXPECT_EQ(d.global_size(), static_cast<GlobalIndex>(n));
    EXPECT_FALSE(d.is_dynamic());
    expect_predicates_match(old_map, new_map, d);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(OwnerDelta, PredicatesMatchSortedListsOnDynamicMaps) {
  const std::uint64_t seeds = testing_support::seed_count(30);
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    Rng rng(s);
    const int P = static_cast<int>(rng.range(1, 6));
    const auto n = static_cast<std::size_t>(rng.range(1, 300));
    const std::vector<int> old_map = random_map(rng, n, P, 0.2);
    std::vector<int> new_map = old_map;
    for (int& p : new_map) {  // interior births, deaths and moves
      const double u = rng.uniform();
      if (u < 0.1) p = -1;
      else if (u < 0.3) p = static_cast<int>(rng.below(static_cast<std::uint64_t>(P)));
    }
    switch (rng.below(3)) {
      case 0:  // grow: a tail of births and holes
        for (int k = 0, grow = static_cast<int>(rng.range(1, 40)); k < grow; ++k)
          new_map.push_back(rng.below(4) == 0 ? -1
                                              : static_cast<int>(rng.below(
                                                    static_cast<std::uint64_t>(P))));
        break;
      case 1:  // shrink: truncation deletes the tail
        new_map.resize(static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(new_map.size()))));
        break;
      default:  // same size
        break;
    }
    const OwnerDelta d = OwnerDelta::compute_dynamic(old_map, new_map);
    EXPECT_EQ(d.global_size(), static_cast<GlobalIndex>(new_map.size()));
    expect_predicates_match(old_map, new_map, d);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace chaos::core
