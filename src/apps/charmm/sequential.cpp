#include "apps/charmm/sequential.hpp"

#include <numeric>

#include "apps/charmm/forces.hpp"
#include "util/check.hpp"

namespace chaos::charmm {

SequentialResult run_sequential_charmm(const MolecularSystem& system,
                                       const SequentialRunConfig& cfg) {
  CHAOS_CHECK(cfg.steps >= 1);
  CHAOS_CHECK(cfg.nb_rebuild_every >= 1);

  const double box = system.params.box;
  const double cutoff = system.params.cutoff;
  const std::size_t n = system.size();

  SequentialResult r;
  r.pos = system.pos;
  r.vel = system.vel;
  r.force.assign(n, part::Vec3{});

  // All atoms are rows of the list in the sequential code.
  std::vector<GlobalIndex> rows(n);
  std::iota(rows.begin(), rows.end(), GlobalIndex{0});

  NeighborBuildStats nb_stats;
  NonbondedList list = build_nonbonded_list(r.pos, rows, cutoff, box,
                                            &nb_stats, system.bonds);
  r.work_units +=
      static_cast<double>(nb_stats.candidates_examined) * kWorkPerPairCheck;
  ++r.nb_rebuilds;

  for (int step = 0; step < cfg.steps; ++step) {
    if (step > 0 && step % cfg.nb_rebuild_every == 0) {
      list = build_nonbonded_list(r.pos, rows, cutoff, box, &nb_stats,
                                  system.bonds);
      r.work_units += static_cast<double>(nb_stats.candidates_examined) *
                      kWorkPerPairCheck;
      ++r.nb_rebuilds;
    }

    std::fill(r.force.begin(), r.force.end(), part::Vec3{});

    // Bonded forces (Figure 2, loop L2).
    for (const auto& [i, j] : system.bonds) {
      const part::Vec3 f = bond_force(r.pos[static_cast<size_t>(i)],
                                      r.pos[static_cast<size_t>(j)], box);
      r.force[static_cast<size_t>(i)] = r.force[static_cast<size_t>(i)] + f;
      r.force[static_cast<size_t>(j)] = r.force[static_cast<size_t>(j)] - f;
    }
    r.work_units += static_cast<double>(system.bonds.size()) * kWorkPerBond;

    // Non-bonded forces (Figure 2, loop L3) over the half list.
    nonbonded_rows(r.pos.data(), r.force.data(), list.inblo, list.jnb.data(),
                   cutoff, box);
    r.work_units += static_cast<double>(list.pairs()) * kWorkPerNonbonded;

    // Leapfrog-ish integration with periodic wrap.
    for (std::size_t k = 0; k < n; ++k) {
      r.vel[k] = r.vel[k] + r.force[k] * cfg.dt;
      r.pos[k] = r.pos[k] + r.vel[k] * cfg.dt;
      for (int a = 0; a < 3; ++a) {
        while (r.pos[k][a] >= box) r.pos[k][a] -= box;
        while (r.pos[k][a] < 0) r.pos[k][a] += box;
      }
    }
    r.work_units += static_cast<double>(n) * kWorkPerIntegrate;
  }

  r.nb_pairs = list.pairs();
  return r;
}

}  // namespace chaos::charmm
