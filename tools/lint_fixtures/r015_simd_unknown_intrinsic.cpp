// Lint fixture: must trigger exactly one R015 (hot-call-effects)
// finding. The helper has the clean SIMD fixture's shape, but it also
// calls an intrinsic that is not on the effect table (a 64-bit-index
// gather), so its summary widens to calls_unknown: the table is a list
// of exact names, not a pass for anything spelled `_mm512_`.
#include <bit>
#include <immintrin.h>

int count_hits_wide(const int* ids, const int* vals, int key) {
  const __m512i idx = _mm512_loadu_si512(ids);
  const __m512i col = _mm512_mask_i32gather_epi32(
      _mm512_setzero_si512(), static_cast<__mmask16>(0xFFFF), idx, vals, 4);
  const __m256i far = _mm512_i64gather_epi32(idx, vals, 4);
  (void)far;
  const __mmask16 hit = _mm512_cmpeq_epi32_mask(col, _mm512_set1_epi32(key));
  return std::popcount(static_cast<unsigned>(hit));
}

void fixture_r015_simd_unknown(const int* ids, const int* vals, int* out,
                               int blocks) {
#pragma omp parallel for schedule(static)
  for (int b = 0; b < blocks; ++b) {
    out[b] = count_hits_wide(ids + 16 * b, vals, 3);  // R015
  }
}
