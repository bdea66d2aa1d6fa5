// Non-bonded (Verlet) list construction with a cell grid.
//
// The list is CHARMM's `inblo`/`jnb` pair (paper Figure 2/10): for each
// atom i, the partners jnb[inblo[i] .. inblo[i+1]) within the cutoff. We
// build half lists (partner j recorded only for j > i) so each pair is
// computed once and forces are applied to both sides, matching the
// REDUCE(SUM, dx(i)) / REDUCE(SUM, dx(jnb(j))) structure of Figure 10.
#pragma once

#include <span>
#include <vector>

#include "apps/charmm/system.hpp"

namespace chaos::charmm {

/// CSR non-bonded list over a *subset* of atoms: row k describes the
/// partners of atoms[k] (global ids in jnb).
struct NonbondedList {
  std::vector<GlobalIndex> inblo;  ///< size rows+1, offsets into jnb
  std::vector<GlobalIndex> jnb;    ///< partner global ids

  std::size_t rows() const { return inblo.empty() ? 0 : inblo.size() - 1; }
  std::size_t pairs() const { return jnb.size(); }
};

/// Statistics from one list build (used to charge the cost model).
/// candidates_examined is the coarse-grid count the cost model charges:
/// per row, the atoms with a larger id in each of the 27 cells around it,
/// a cell counted once per visit (grids of n <= 2 cells per dimension
/// visit some cells twice) — however the host actually runs the test.
struct NeighborBuildStats {
  std::size_t candidates_examined = 0;
  std::size_t pairs_kept = 0;
};

/// Build the half non-bonded list for the atoms in `rows` (global ids),
/// searching against all positions via a cell grid of cell size >= cutoff.
/// Pairs listed in `exclusions` (i < j; typically the bonded topology, as
/// in real CHARMM) are omitted. Positions must be inside [0, box)^3.
/// Deterministic: partners appear in ascending global id order. The
/// distance test is bitwise that of min_image (forces.hpp) on every host:
/// the same IEEE operations, no contraction, whether it runs in lanes or
/// not.
NonbondedList build_nonbonded_list(
    std::span<const part::Point3> all_pos,
    std::span<const GlobalIndex> rows, double cutoff, double box,
    NeighborBuildStats* stats = nullptr,
    std::span<const std::pair<GlobalIndex, GlobalIndex>> exclusions = {});

/// Work units per candidate pair examined during list construction.
inline constexpr double kWorkPerPairCheck = 5.0;

/// Cheap per-atom computational-load estimate used by the *first* data
/// partition, before any non-bonded list exists: the atom count of the
/// surrounding 3x3x3 cell neighborhood, which is proportional to the
/// expected partner count (the per-atom load the paper's weighted RCB/RIB
/// balance, §4.1). After a list exists, its row lengths are the weights.
std::vector<double> estimate_atom_load(std::span<const part::Point3> all_pos,
                                       std::span<const GlobalIndex> rows,
                                       double cutoff, double box);

}  // namespace chaos::charmm
