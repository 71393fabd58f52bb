// Lint fixture: the R015-clean SIMD case — the hot loop calls a helper
// built only from AVX-512 intrinsics on the seam's effect table
// (register ops, a vector load and a gather), so its summary stays
// empty. No finding.
#include <bit>
#include <immintrin.h>

int count_hits(const int* ids, const int* vals, int key) {
  const __m512i idx = _mm512_loadu_si512(ids);
  const __m512i col = _mm512_mask_i32gather_epi32(
      _mm512_setzero_si512(), static_cast<__mmask16>(0xFFFF), idx, vals, 4);
  const __mmask16 hit = _mm512_cmpeq_epi32_mask(col, _mm512_set1_epi32(key));
  return std::popcount(static_cast<unsigned>(hit));
}

void fixture_clean_r015_simd(const int* ids, const int* vals, int* out,
                             int blocks) {
#pragma omp parallel for schedule(static)
  for (int b = 0; b < blocks; ++b) {
    out[b] = count_hits(ids + 16 * b, vals, 3);
  }
}
