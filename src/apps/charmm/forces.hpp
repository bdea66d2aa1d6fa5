// Force kernels for the mini-CHARMM: a soft Lennard-Jones-shaped
// non-bonded pair force with smooth cutoff and a harmonic bond force.
// The physics is intentionally simple — the runtime behaviour the paper
// measures depends on the *indirection structure and per-pair cost*, not on
// the force field.
//
// Bitwise contract of the non-bonded row kernel: each body performs, per
// pair, exactly the IEEE operations of nonbonded_force in the same order,
// never contracted into fused multiply-adds, and accumulates in partner
// order — so every body equals the per-pair loop bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "apps/charmm/system.hpp"
#include "partition/geometry.hpp"

namespace chaos::charmm {

/// Work-unit charges per kernel evaluation (flop-equivalents of 1994-era
/// CHARMM inner loops). These set the compute side of Tables 1/2/3/6.
inline constexpr double kWorkPerNonbonded = 24.0;
inline constexpr double kWorkPerBond = 34.0;
inline constexpr double kWorkPerIntegrate = 18.0;

/// Minimum-image displacement a-b in a cubic periodic box.
inline part::Vec3 min_image(const part::Point3& a, const part::Point3& b,
                            double box) {
  part::Vec3 d = a - b;
  for (int k = 0; k < 3; ++k) {
    if (d[k] > box / 2) d[k] -= box;
    if (d[k] < -box / 2) d[k] += box;
  }
  return d;
}

/// Non-bonded pair force on atom i due to atom j (equal and opposite on j).
/// A softened, *bounded* 12-6-like profile: repulsive near contact, weakly
/// attractive out to the cutoff, exactly zero beyond it. The magnitude
/// clamp keeps the synthetic system's dynamics tame (randomly generated
/// configurations contain contacts a real equilibrated structure would
/// not), which keeps trajectories numerically comparable across summation
/// orders.
inline part::Vec3 nonbonded_force(const part::Point3& xi,
                                  const part::Point3& xj, double cutoff,
                                  double box) {
  const part::Vec3 d = min_image(xi, xj, box);
  const double r2 = d.dot(d);
  const double cut2 = cutoff * cutoff;
  if (r2 >= cut2 || r2 <= 1e-12) return {};
  // Soft-core LJ: s = sigma^2 / (r^2 + eps) keeps the force finite at
  // overlap.
  const double sigma2 = 2.5 * 2.5;
  const double s = sigma2 / (r2 + 1.0);
  const double s3 = s * s * s;
  // d/dr of 4(s^6 - s^3) expressed via r^2; positive = repulsive.
  double mag = 1.2 * (2.0 * s3 * s3 - s3) / (r2 + 1.0);
  mag = std::min(std::max(mag, -10.0), 10.0);
  // Smooth switch to zero at the cutoff.
  const double x = r2 / cut2;
  const double sw = (1.0 - x) * (1.0 - x);
  mag *= sw;
  return d * mag;
}

/// The non-bonded loop over one row of a half list: for k in [0, n), the
/// pair (i, js[k]) adds nonbonded_force to acc[i] and subtracts it from
/// acc[js[k]]. acc[i] is held in registers and stored once, so js must not
/// contain i. The body is picked once per process: the 4-lane AVX2 one
/// where the CPU has AVX2, the portable scalar one otherwise.
void nonbonded_row(const part::Point3* pos, part::Vec3* acc, std::size_t i,
                   const GlobalIndex* js, std::size_t n, double cutoff,
                   double box);

/// nonbonded_row for every atom i of a CSR list whose row i holds
/// partners[inblo[i] .. inblo[i+1]).
void nonbonded_rows(const part::Point3* pos, part::Vec3* acc,
                    std::span<const GlobalIndex> inblo,
                    const GlobalIndex* partners, double cutoff, double box);

/// The two bodies, for tests and microbenchmarks; the AVX2 one only where
/// host_has_avx2().
void nonbonded_row_scalar(const part::Point3* pos, part::Vec3* acc,
                          std::size_t i, const GlobalIndex* js, std::size_t n,
                          double cutoff, double box);
void nonbonded_row_avx2(const part::Point3* pos, part::Vec3* acc,
                        std::size_t i, const GlobalIndex* js, std::size_t n,
                        double cutoff, double box);
bool host_has_avx2();

/// Harmonic bond force on atom i (equal and opposite on j).
inline part::Vec3 bond_force(const part::Point3& xi, const part::Point3& xj,
                             double box, double r0 = 1.0, double k = 2.5) {
  const part::Vec3 d = min_image(xi, xj, box);
  const double r = d.norm();
  if (r <= 1e-12) return {};
  const double mag = -k * (r - r0) / r;
  return d * mag;
}

}  // namespace chaos::charmm
