// Lint fixture: must trigger exactly one R013 (unblessed-shared-write)
// finding. A vpscatterdd is a store like `marks[i] = stamp`: the
// helper scatters through its aliasing parameter and is reachable from
// a parallel region, outside any blessed seam, so every thread of the
// team can write the same marks. (The color-access seam's scatter is
// the sanctioned form: it only ever targets the calling thread's own
// MarkerSet.)
#include <immintrin.h>

void stamp_block(const int* ids, unsigned* marks, unsigned stamp) {
  const __m512i idx = _mm512_loadu_si512(ids);
  _mm512_i32scatter_epi32(marks, idx, _mm512_set1_epi32(stamp), 4);  // R013
}

void fixture_r013_simd(const int* ids, unsigned* marks, int blocks) {
#pragma omp parallel for schedule(static)
  for (int b = 0; b < blocks; ++b) {
    stamp_block(ids + 16 * b, marks, 1u);
  }
}
