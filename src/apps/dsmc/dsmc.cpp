#include "apps/dsmc/dsmc.hpp"

#include <cmath>

#include "util/check.hpp"

namespace chaos::dsmc {

part::Point3 cell_center(const DsmcParams& p, GlobalIndex cell) {
  CHAOS_CHECK(cell >= 0 && cell < p.n_cells());
  const int ix = static_cast<int>(cell % p.nx);
  const int iy = static_cast<int>((cell / p.nx) % p.ny);
  const int iz = static_cast<int>(cell / (static_cast<GlobalIndex>(p.nx) * p.ny));
  return {ix + 0.5, iy + 0.5, iz + 0.5};
}

GlobalIndex chain_position(const DsmcParams& p, GlobalIndex cell) {
  const GlobalIndex ix = cell % p.nx;
  const GlobalIndex iy = (cell / p.nx) % p.ny;
  const GlobalIndex iz = cell / (static_cast<GlobalIndex>(p.nx) * p.ny);
  // x slowest: all cells of one yz-plane are contiguous.
  return iy + static_cast<GlobalIndex>(p.ny) * (iz + static_cast<GlobalIndex>(p.nz) * ix);
}

GlobalIndex cell_at_chain_position(const DsmcParams& p, GlobalIndex pos) {
  const GlobalIndex iy = pos % p.ny;
  const GlobalIndex iz = (pos / p.ny) % p.nz;
  const GlobalIndex ix = pos / (static_cast<GlobalIndex>(p.ny) * p.nz);
  return ix + static_cast<GlobalIndex>(p.nx) *
                  (iy + static_cast<GlobalIndex>(p.ny) * iz);
}

std::vector<Particle> generate_particles(const DsmcParams& p) {
  CHAOS_CHECK(p.n_particles >= 0);
  Rng rng(p.seed);
  std::vector<Particle> out(static_cast<size_t>(p.n_particles));
  for (GlobalIndex i = 0; i < p.n_particles; ++i) {
    Particle& q = out[static_cast<size_t>(i)];
    q.id = i;
    double u = rng.uniform();
    // Non-uniform option: density ramps down along +x, so the +x drift
    // slowly erodes the initial balance — the Table 5 workload.
    q.x = p.nonuniform_init ? u * u * p.nx : u * p.nx;
    q.y = rng.uniform() * p.ny;
    q.z = p.nz > 1 ? rng.uniform() * p.nz : 0.25;
    q.vx = rng.normal() * p.thermal;
    q.vy = rng.normal() * p.thermal;
    q.vz = p.nz > 1 ? rng.normal() * p.thermal : 0.0;
    if (rng.uniform() < p.flow_bias) q.vx += p.drift;
  }
  return out;
}

Particle birth(const DsmcParams& p, GlobalIndex id) {
  Rng rng(mix64(p.seed ^ (static_cast<std::uint64_t>(id) + 1) *
                             0x8bb84b93962eacc9ULL));
  Particle q;
  q.id = id;
  const double u = rng.uniform();
  q.x = p.nonuniform_init ? u * u * p.nx : u * p.nx;
  q.y = rng.uniform() * p.ny;
  q.z = p.nz > 1 ? rng.uniform() * p.nz : 0.25;
  q.vx = rng.normal() * p.thermal;
  q.vy = rng.normal() * p.thermal;
  q.vz = p.nz > 1 ? rng.normal() * p.thermal : 0.0;
  if (rng.uniform() < p.flow_bias) q.vx += p.drift;
  return q;
}

std::vector<Particle> generate_births(const DsmcParams& p, int step) {
  std::vector<Particle> out;
  out.reserve(static_cast<std::size_t>(p.births_per_step));
  for (GlobalIndex i = 0; i < p.births_per_step; ++i)
    out.push_back(birth(p, p.n_particles +
                               static_cast<GlobalIndex>(step) * p.births_per_step +
                               i));
  return out;
}

int collide_cell(const DsmcParams& p, GlobalIndex cell, int step,
                 std::span<Particle*> cell_particles) {
  const int n = static_cast<int>(cell_particles.size());
  if (n < 2) return 0;
#ifndef CHAOS_NO_INTERNAL_CHECKS
  for (int k = 0; k + 1 < n; ++k)
    CHAOS_ASSERT(cell_particles[static_cast<size_t>(k)]->id <
                     cell_particles[static_cast<size_t>(k) + 1]->id,
                 "cell particles must be sorted by id");
#endif
  Rng rng(mix64(p.seed ^ (static_cast<std::uint64_t>(cell) * 0x9e3779b97f4a7c15ULL) ^
                (static_cast<std::uint64_t>(step) + 1) * 0xd1342543de82ef95ULL));
  const int candidates = n / 3;
  int done = 0;
  for (int c = 0; c < candidates; ++c) {
    const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    int j = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    if (j >= i) ++j;
    Particle& a = *cell_particles[static_cast<size_t>(i)];
    Particle& b = *cell_particles[static_cast<size_t>(j)];
    // Elastic VHS-style collision: preserve the centre-of-mass velocity and
    // the relative speed; randomize the relative direction isotropically.
    const double gx = a.vx - b.vx, gy = a.vy - b.vy, gz = a.vz - b.vz;
    const double g = std::sqrt(gx * gx + gy * gy + gz * gz);
    const double ct = 2.0 * rng.uniform() - 1.0;  // cos(theta)
    const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
    const double phi = 6.283185307179586 * rng.uniform();
    const double ngx = g * st * std::cos(phi);
    const double ngy = g * st * std::sin(phi);
    const double ngz = g * ct;
    const double cx = 0.5 * (a.vx + b.vx), cy = 0.5 * (a.vy + b.vy),
                 cz = 0.5 * (a.vz + b.vz);
    a.vx = cx + 0.5 * ngx;
    a.vy = cy + 0.5 * ngy;
    a.vz = cz + 0.5 * ngz;
    b.vx = cx - 0.5 * ngx;
    b.vy = cy - 0.5 * ngy;
    b.vz = cz - 0.5 * ngz;
    ++done;
  }
  return done;
}

}  // namespace chaos::dsmc
