// Synthetic molecular system standing in for the paper's CHARMM benchmark
// case (MbCO + 3830 water molecules, 14026 atoms, 14 Å cutoff).
//
// We cannot ship the MbCO structure, so we generate a system with the same
// statistics the runtime cares about: a dense
// protein-like cluster plus a bath of three-atom water-like molecules in a
// periodic box, bonded topology (fixed for the whole run), and per-atom
// non-bonded partner counts set by the cutoff and local density — which is
// what drives load, communication volume, and list-regeneration cost.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/translation_table.hpp"
#include "partition/geometry.hpp"

namespace chaos::charmm {

using core::GlobalIndex;

struct SystemParams {
  std::size_t n_atoms = 14026;
  /// Cubic box edge (Å). Chosen so the cutoff yields ~300 non-bonded
  /// partners per atom (half-list), matching the list sizes implied by the
  /// paper's Table 2 schedule-generation costs.
  double box = 64.0;
  double cutoff = 14.0;           ///< non-bonded cutoff, Å
  double protein_fraction = 0.18; ///< fraction of atoms in the dense cluster
  std::uint64_t seed = 1994;

  /// Scaled-down variant for unit tests.
  static SystemParams small(std::size_t n, std::uint64_t seed = 7) {
    SystemParams p;
    p.n_atoms = n;
    p.box = 16.0;
    p.cutoff = 5.0;
    p.protein_fraction = 0.2;
    p.seed = seed;
    return p;
  }
};

struct MolecularSystem {
  SystemParams params;
  std::vector<part::Point3> pos;
  std::vector<part::Vec3> vel;
  /// Bonded pairs (i < j), fixed for the whole simulation.
  std::vector<std::pair<GlobalIndex, GlobalIndex>> bonds;

  std::size_t size() const { return pos.size(); }

  /// Deterministic generation: identical on every rank for a given seed.
  static MolecularSystem generate(const SystemParams& p);
};

}  // namespace chaos::charmm
