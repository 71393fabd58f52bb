// Build-time switch for the AVX-512 body of the distance-2 color-access
// seam (core kernels_common.hpp: forbid_colors / first_lower_clash).
//
// The vector body is compiled in when the target has AVX-512F and the
// build routes no color access through a hook: GCOL_AUDIT ledgers every
// load/store, GCOL_MC turns each access into a schedule point, and
// ThreadSanitizer must see each access as the relaxed atomic it is. A
// vpgatherdd bypasses all three, so those builds keep the scalar body.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define GCOL_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GCOL_TSAN_BUILD 1
#endif
#endif

#if defined(__AVX512F__) && !defined(GCOL_AUDIT) && !defined(GCOL_MC) && \
    !defined(GCOL_TSAN_BUILD)
#define GCOL_VECTOR_GATHER 1
#else
#define GCOL_VECTOR_GATHER 0
#endif

namespace gcol {

/// True when the distance-2 walk runs its AVX-512 gather/scatter body.
inline constexpr bool kVectorGather = GCOL_VECTOR_GATHER != 0;

}  // namespace gcol
