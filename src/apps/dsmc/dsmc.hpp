// Mini-DSMC (Direct Simulation Monte Carlo) core types and physics
// (paper §2.2): a 2-D/3-D Cartesian cell grid, particles with thermal +
// drift velocities, per-cell elastic collisions, and a MOVE phase that
// migrates particles between cells every step.
//
// Determinism contract: the collision sequence of a (cell, step) pair
// depends only on (seed, cell, step) and the cell's particle multiset —
// particles are sorted by id before colliding — so the sequential and any
// parallel execution produce bit-identical particle states. (The parallel
// driver counting-sorts each collide into one contiguous id-sorted range
// per owned cell; between collides the particle order carries no meaning.)
// That is what lets the tests assert exact agreement across processor
// counts and migration paths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/translation_table.hpp"
#include "partition/geometry.hpp"
#include "util/rng.hpp"

namespace chaos::dsmc {

using core::GlobalIndex;

struct DsmcParams {
  int nx = 32, ny = 32, nz = 1;  ///< cells per dimension (nz = 1 -> 2-D)
  GlobalIndex n_particles = 5000;
  double flow_bias = 0.7;    ///< fraction of particles given a +x drift
  double drift = 0.35;       ///< drift speed, cells per step
  double thermal = 0.30;     ///< thermal velocity scale, cells per step
  double dt = 1.0;
  std::uint64_t seed = 94;
  bool nonuniform_init = false;  ///< density ramp toward x=0 (Table 5 load)

  // Particle birth/death (dynamic population). Births inject at the end of
  // every step's MOVE phase with fresh, never-recycled ids; deaths absorb
  // particles by a deterministic (seed, id, step) hash so every execution
  // arm — sequential, imperative, eager/pipelined/arrival step graph —
  // absorbs the identical set regardless of where the particle lives.
  GlobalIndex births_per_step = 0;  ///< particles injected per step
  double death_rate = 0.0;          ///< per-particle absorption odds per step

  /// Multiplier on the per-particle/per-collision work charges. The
  /// paper's three DSMC experiments ran different code versions whose
  /// per-molecule costs differ severalfold (compare Tables 4, 5 and 7);
  /// each bench sets this to its table's implied cost.
  double work_scale = 1.0;

  GlobalIndex n_cells() const {
    return static_cast<GlobalIndex>(nx) * ny * nz;
  }
};

struct Particle {
  GlobalIndex id = -1;
  double x = 0, y = 0, z = 0;
  double vx = 0, vy = 0, vz = 0;
};

/// Work-unit charges (flop-equivalents per paper-era DSMC inner loops; a
/// production MOVE handles boundary interactions and species bookkeeping
/// well beyond our kinematics, hence the weights exceed the literal flop
/// counts of the mini-app).
inline constexpr double kWorkPerMove = 50.0;
inline constexpr double kWorkPerSort = 20.0;
inline constexpr double kWorkPerCollision = 180.0;
inline constexpr double kWorkPerCellVisit = 8.0;

/// Cartesian cell of a particle (positions live in [0,nx)x[0,ny)x[0,nz)).
inline GlobalIndex cell_of(const DsmcParams& p, const Particle& q) {
  auto clampi = [](int v, int hi) { return v < 0 ? 0 : (v >= hi ? hi - 1 : v); };
  const int ix = clampi(static_cast<int>(q.x), p.nx);
  const int iy = clampi(static_cast<int>(q.y), p.ny);
  const int iz = clampi(static_cast<int>(q.z), p.nz);
  return ix + static_cast<GlobalIndex>(p.nx) *
                  (iy + static_cast<GlobalIndex>(p.ny) * iz);
}

/// Cell centre (for the spatial partitioners).
part::Point3 cell_center(const DsmcParams& p, GlobalIndex cell);

/// Position of a cell in x-slowest order: contiguous chain blocks become
/// slabs perpendicular to the flow direction (what the chain partitioner
/// needs, paper §4.2.1).
GlobalIndex chain_position(const DsmcParams& p, GlobalIndex cell);
GlobalIndex cell_at_chain_position(const DsmcParams& p, GlobalIndex pos);

/// Deterministic initial particle set (identical for a given params).
std::vector<Particle> generate_particles(const DsmcParams& p);

/// splitmix64's finalizer, the hash behind every seeded decision.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Is particle `id` absorbed at the end of `step`? Pure function of
/// (seed, id, step, death_rate) — no geometry, so every rank can answer
/// for any particle without communication.
inline bool absorbed(const DsmcParams& p, GlobalIndex id, int step) {
  if (p.death_rate <= 0.0) return false;
  const std::uint64_t h =
      mix64(p.seed ^ (static_cast<std::uint64_t>(id) * 0xa0761d6478bd642fULL) ^
            (static_cast<std::uint64_t>(step) + 1) * 0xe7037ed1a0b428dbULL);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p.death_rate;
}

/// The newborn with id `id` (never recycled; state seeded from the id
/// alone, so any rank can generate any newborn bit-identically).
Particle birth(const DsmcParams& p, GlobalIndex id);

/// The particles born at the end of `step`, ids
/// n_particles + step*births_per_step + i.
std::vector<Particle> generate_births(const DsmcParams& p, int step);

/// Advance one particle by dt with periodic wrap.
inline void advance(const DsmcParams& p, Particle& q, double dt) {
  q.x += q.vx * dt;
  q.y += q.vy * dt;
  q.z += q.vz * dt;
  auto wrap = [](double v, double extent) {
    while (v >= extent) v -= extent;
    while (v < 0) v += extent;
    return v;
  };
  q.x = wrap(q.x, p.nx);
  q.y = wrap(q.y, p.ny);
  if (p.nz > 1)
    q.z = wrap(q.z, p.nz);
}

/// Collide the particles of one cell at one step. `cell_particles` must be
/// sorted by id (the determinism contract). Returns the number of
/// collisions performed.
int collide_cell(const DsmcParams& p, GlobalIndex cell, int step,
                 std::span<Particle*> cell_particles);

}  // namespace chaos::dsmc
