// Lint fixture: must trigger exactly one R015 (hot-call-effects)
// finding. The helper uses only the seam's listed AVX-512 intrinsics,
// but it also logs through stdio; the listed intrinsics do not launder
// the blocking call, so the hot call site is still flagged.
#include <bit>
#include <cstdio>
#include <immintrin.h>

int count_hits_logged(const int* ids, const int* vals, int key) {
  const __m512i idx = _mm512_loadu_si512(ids);
  const __m512i col = _mm512_mask_i32gather_epi32(
      _mm512_setzero_si512(), static_cast<__mmask16>(0xFFFF), idx, vals, 4);
  const __mmask16 hit = _mm512_cmpeq_epi32_mask(col, _mm512_set1_epi32(key));
  std::fprintf(stderr, "hits %x\n", static_cast<unsigned>(hit));
  return std::popcount(static_cast<unsigned>(hit));
}

void fixture_r015_simd_blocking(const int* ids, const int* vals, int* out,
                                int blocks) {
#pragma omp parallel for schedule(static)
  for (int b = 0; b < blocks; ++b) {
    out[b] = count_hits_logged(ids + 16 * b, vals, 3);  // R015
  }
}
