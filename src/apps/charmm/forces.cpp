#include "apps/charmm/forces.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace chaos::charmm {

void nonbonded_row_scalar(const part::Point3* pos, part::Vec3* acc,
                          std::size_t i, const GlobalIndex* js, std::size_t n,
                          double cutoff, double box) {
  part::Vec3 ai = acc[i];
  for (std::size_t k = 0; k < n; ++k) {
    const auto j = static_cast<std::size_t>(js[k]);
    const part::Vec3 f = nonbonded_force(pos[i], pos[j], cutoff, box);
    ai = ai + f;
    acc[j] = acc[j] - f;
  }
  acc[i] = ai;
}

#if defined(__x86_64__)

bool host_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

// Plain "avx2", never an FMA-enabling target: the compiler would contract
// the mul/add pairs and break the bitwise contract.
[[gnu::target("avx2"), gnu::always_inline]] inline __m256d min_image4(
    __m256d d, __m256d box, __m256d half) {
  // The wraps exclude each other even after the first (fl(d - box) >=
  // -box/2), so both tests may read the unwrapped d.
  const __m256d neg_half = _mm256_sub_pd(_mm256_setzero_pd(), half);
  return _mm256_blendv_pd(
      _mm256_blendv_pd(d, _mm256_sub_pd(d, box),
                       _mm256_cmp_pd(d, half, _CMP_GT_OQ)),
      _mm256_add_pd(d, box), _mm256_cmp_pd(d, neg_half, _CMP_LT_OQ));
}

[[gnu::target("avx2")]] void nonbonded_row_avx2(
    const part::Point3* pos, part::Vec3* acc, std::size_t i,
    const GlobalIndex* js, std::size_t n, double cutoff, double box) {
  // Chunks of partners: first every force of the chunk, 4 lanes at a time
  // (independent blocks the core overlaps), then the in-order accumulation.
  constexpr std::size_t kChunk = 64;
  const __m256d vbox = _mm256_set1_pd(box), half = _mm256_set1_pd(box / 2);
  const __m256d cut2 = _mm256_set1_pd(cutoff * cutoff);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d xi = _mm256_set1_pd(pos[i].x), yi = _mm256_set1_pd(pos[i].y),
                zi = _mm256_set1_pd(pos[i].z);
  part::Vec3 ai = acc[i];
  alignas(32) std::size_t idx[kChunk] = {};
  alignas(32) double f[3][kChunk] = {};
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t len = std::min(kChunk, n - base);
    for (std::size_t k = 0; k < len; ++k)
      idx[k] = static_cast<std::size_t>(js[base + k]);
    // A short last block is padded with i: zero distance, cut off.
    for (std::size_t k = len; k % 4 != 0; ++k) idx[k] = i;
    for (std::size_t k = 0; k < len; k += 4) {
      const part::Point3 *p0 = pos + idx[k], *p1 = pos + idx[k + 1],
                         *p2 = pos + idx[k + 2], *p3 = pos + idx[k + 3];
      const __m256d dx = min_image4(
          _mm256_sub_pd(xi, _mm256_set_pd(p3->x, p2->x, p1->x, p0->x)), vbox,
          half);
      const __m256d dy = min_image4(
          _mm256_sub_pd(yi, _mm256_set_pd(p3->y, p2->y, p1->y, p0->y)), vbox,
          half);
      const __m256d dz = min_image4(
          _mm256_sub_pd(zi, _mm256_set_pd(p3->z, p2->z, p1->z, p0->z)), vbox,
          half);
      const __m256d r2 = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
          _mm256_mul_pd(dz, dz));
      // !(r2 >= cut2 || r2 <= 1e-12): the cut-off lanes select +0.0.
      const __m256d keep = _mm256_and_pd(
          _mm256_cmp_pd(r2, cut2, _CMP_NGE_UQ),
          _mm256_cmp_pd(r2, _mm256_set1_pd(1e-12), _CMP_NLE_UQ));
      const __m256d r2p1 = _mm256_add_pd(r2, one);
      const __m256d s = _mm256_div_pd(_mm256_set1_pd(2.5 * 2.5), r2p1);
      const __m256d s3 = _mm256_mul_pd(_mm256_mul_pd(s, s), s);
      __m256d mag = _mm256_div_pd(
          _mm256_mul_pd(
              _mm256_set1_pd(1.2),
              _mm256_sub_pd(
                  _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), s3), s3),
                  s3)),
          r2p1);
      // std::min(std::max(mag, -10.0), 10.0), operand order included.
      mag = _mm256_min_pd(_mm256_set1_pd(10.0),
                          _mm256_max_pd(_mm256_set1_pd(-10.0), mag));
      const __m256d one_x = _mm256_sub_pd(one, _mm256_div_pd(r2, cut2));
      mag = _mm256_mul_pd(mag, _mm256_mul_pd(one_x, one_x));
      _mm256_store_pd(f[0] + k, _mm256_and_pd(_mm256_mul_pd(dx, mag), keep));
      _mm256_store_pd(f[1] + k, _mm256_and_pd(_mm256_mul_pd(dy, mag), keep));
      _mm256_store_pd(f[2] + k, _mm256_and_pd(_mm256_mul_pd(dz, mag), keep));
    }
    for (std::size_t k = 0; k < len; ++k) {
      const part::Vec3 fk{f[0][k], f[1][k], f[2][k]};
      ai = ai + fk;
      acc[idx[k]] = acc[idx[k]] - fk;
    }
  }
  acc[i] = ai;
}

#else

bool host_has_avx2() { return false; }
void nonbonded_row_avx2(const part::Point3* pos, part::Vec3* acc,
                        std::size_t i, const GlobalIndex* js, std::size_t n,
                        double cutoff, double box) {
  nonbonded_row_scalar(pos, acc, i, js, n, cutoff, box);
}

#endif

void nonbonded_row(const part::Point3* pos, part::Vec3* acc, std::size_t i,
                   const GlobalIndex* js, std::size_t n, double cutoff,
                   double box) {
  static const auto body =
      host_has_avx2() ? &nonbonded_row_avx2 : &nonbonded_row_scalar;
  body(pos, acc, i, js, n, cutoff, box);
}

void nonbonded_rows(const part::Point3* pos, part::Vec3* acc,
                    std::span<const GlobalIndex> inblo,
                    const GlobalIndex* partners, double cutoff, double box) {
  for (std::size_t i = 0; i + 1 < inblo.size(); ++i)
    nonbonded_row(pos, acc, i, partners + inblo[i],
                  static_cast<std::size_t>(inblo[i + 1] - inblo[i]), cutoff,
                  box);
}

}  // namespace chaos::charmm
