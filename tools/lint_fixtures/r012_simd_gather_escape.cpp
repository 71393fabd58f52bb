// Lint fixture: must trigger exactly one R012 (seam-escape) finding. A
// vpgatherdd over the color array is a raw read of c[] just like
// `c[u]`: outside the kernels_common.hpp seam it bypasses the audit
// ledgers and gcol-mc schedule points, so the gather lives in the seam
// (forbid_colors_vector) and kernels call that instead.
#include <immintrin.h>

int gather_colors(const int* ids, int* c) {
  const __m512i idx = _mm512_loadu_si512(ids);
  const __m512i col = _mm512_mask_i32gather_epi32(  // R012
      _mm512_setzero_si512(), static_cast<__mmask16>(0xFFFF), idx, c, 4);
  return _mm512_cmpeq_epi32_mask(col, _mm512_setzero_si512()) != 0;
}

void fixture_r012_simd(const int* ids, int* c, int* out, int blocks) {
#pragma omp parallel for schedule(static)
  for (int b = 0; b < blocks; ++b) {
    out[b] = gather_colors(ids + 16 * b, c);
  }
}
