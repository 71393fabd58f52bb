// Internal helpers shared by the BGPC and D2GC kernel translation units:
// relaxed atomic access to the shared color array (speculative phases
// race on it by design), the distance-2 walk over one adjacency list
// (scalar, or AVX-512 gather/scatter where GCOL_VECTOR_GATHER allows),
// and the color-selection policies of Algorithms 2 (first-fit), 8
// (reverse first-fit), 11 (B1) and 12 (B2).
#pragma once

#include <atomic>
#include <bit>
#include <span>
#include <type_traits>
#include <vector>

#include "greedcolor/analyze/contract.hpp"
#include "greedcolor/core/adaptive.hpp"
#include "greedcolor/core/options.hpp"
#include "greedcolor/util/counters.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/simd.hpp"
#include "greedcolor/util/types.hpp"

#include "greedcolor/util/parallel.hpp"

#if GCOL_VECTOR_GATHER
#include <immintrin.h>
#endif

// Speculative-race audit hooks. GCOL_AUDIT builds route every color
// load/store through the active AuditContext's per-thread ledgers (see
// greedcolor/analyze/audit.hpp); release builds compile the hooks to
// nothing, so the accessors below stay a bare relaxed atomic op.
#if defined(GCOL_AUDIT)
#include "greedcolor/analyze/audit.hpp"
#define GCOL_AUDIT_READ(v, col)                                   \
  do {                                                            \
    if (auto* a_ = ::gcol::audit::active()) a_->on_read((v), (col)); \
  } while (0)
#define GCOL_AUDIT_WRITE(v, col)                                     \
  do {                                                               \
    if (auto* a_ = ::gcol::audit::active()) a_->on_write((v), (col)); \
  } while (0)
#else
#define GCOL_AUDIT_READ(v, col) \
  do {                          \
  } while (0)
#define GCOL_AUDIT_WRITE(v, col) \
  do {                           \
  } while (0)
#endif

// gcol-mc schedule points. GCOL_MC builds turn every color access into
// a cooperative yield to the armed model checker (see
// greedcolor/check/mc.hpp): the yield runs *before* the access, so the
// checker decides which thread's pending read/write commits next.
// GCOL_MC_REGION() registers the calling thread for one parallel
// region. Both compile to nothing in normal builds — the hot path stays
// a bare relaxed atomic op.
#if defined(GCOL_MC)
#include "greedcolor/check/mc.hpp"
#define GCOL_MC_YIELD(v, kind) \
  ::gcol::check::mc_yield((v), ::gcol::check::AccessKind::kind)
#define GCOL_MC_REGION() \
  ::gcol::check::McRegionScope gcol_mc_region_scope_ {}
#else
#define GCOL_MC_YIELD(v, kind) \
  do {                         \
  } while (0)
#define GCOL_MC_REGION() \
  do {                   \
  } while (0)
#endif

namespace gcol::detail {

/// Resolve 0 ("ambient") to the actual OpenMP thread count.
inline int resolve_threads(int requested) {
  const int threads = requested > 0 ? requested : max_threads();
  GCOL_CONTRACT(threads >= 1, "thread count must be positive");
  return threads;
}

// The optimistic phases read and write colors concurrently without
// synchronization; relaxed atomics make that well-defined without any
// x86 cost. All kernel code funnels c[] accesses through these.
inline color_t load_color(color_t* c, vid_t v) {
  GCOL_MC_YIELD(v, kLoad);
  const color_t col =
      std::atomic_ref<color_t>(c[static_cast<std::size_t>(v)])
          .load(std::memory_order_relaxed);
  GCOL_AUDIT_READ(v, col);
  return col;
}

inline void store_color(color_t* c, vid_t v, color_t col) {
  GCOL_MC_YIELD(v, kStore);
  GCOL_AUDIT_WRITE(v, col);
  std::atomic_ref<color_t>(c[static_cast<std::size_t>(v)])
      .store(col, std::memory_order_relaxed);
}

/// Atomically uncolor v; returns the previous color (kNoColor when it
/// was already uncolored — the caller then skips the queue push, which
/// deduplicates the next round's work queue).
inline color_t exchange_uncolor(color_t* c, vid_t v) {
  GCOL_MC_YIELD(v, kExchange);
  GCOL_AUDIT_WRITE(v, kNoColor);
  return std::atomic_ref<color_t>(c[static_cast<std::size_t>(v)])
      .exchange(kNoColor, std::memory_order_relaxed);
}

/// Lookahead distance (adjacency entries) for prefetching neighbor
/// color words in the gather loops. Deep enough to cover an L2 miss at
/// one entry per iteration, shallow enough not to thrash on short
/// adjacency lists (which skip the prefetch entirely).
inline constexpr std::size_t kColorPrefetchDist = 8;

/// Hint the cache that c[v] is about to be read. Kept here — the one
/// seam allowed to touch the raw color array — so the kernels' gather
/// loops stay free of direct c[] arithmetic (lint R002). Compiles to
/// nothing on toolchains without the builtin; never faults (prefetch
/// of any address is architecturally a no-op).
inline void prefetch_color(const color_t* c, vid_t v) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(c + static_cast<std::size_t>(v), /*rw=*/0,
                     /*locality=*/1);
#else
  (void)c;
  (void)v;
#endif
}

// --- The distance-2 walk over one adjacency list -------------------------
//
// Every stamped-policy vertex kernel (and the sequential baselines)
// spends its time here: Θ(Σ|vtxs(v)|²) color loads and forbidden-set
// inserts. Each helper has a scalar body (the reference, and the only
// body in GCOL_AUDIT / GCOL_MC / TSan builds, which must see every
// color access through load_color) and, under GCOL_VECTOR_GATHER, an
// AVX-512 body that handles 16 entries per step and hands lists
// shorter than 16 and the tail of longer ones to the scalar body. Both
// produce the same set and the same counts (tests/test_color_seam.cpp).

/// Scalar body of forbid_colors.
inline void forbid_colors_scalar(color_t* c, const vid_t* ids, std::size_t n,
                                 vid_t self, MarkerSet& f) {
  for (std::size_t j = 0; j < n; ++j) {
    // The distance-2 gather is the random-access hot spot: hint the
    // color word a few entries ahead so the load below hits.
    if (j + kColorPrefetchDist < n)
      prefetch_color(c, ids[j + kColorPrefetchDist]);
    const vid_t u = ids[j];
    if (u == self) continue;
    const color_t cu = load_color(c, u);
    if (cu != kNoColor) f.insert(cu);
  }
}

/// Outcome of a conflict scan over one list.
struct ClashScan {
  bool clash = false;
  std::size_t visited = 0;  // entries examined, the clash entry included
};

/// Scalar body of first_lower_clash.
inline ClashScan first_lower_clash_scalar(color_t* c, const vid_t* ids,
                                          std::size_t n, vid_t w,
                                          color_t cw) {
  for (std::size_t j = 0; j < n; ++j) {
    if (j + kColorPrefetchDist < n)
      prefetch_color(c, ids[j + kColorPrefetchDist]);
    const vid_t u = ids[j];
    if (u == w) continue;
    // Tie-break (Alg. 3 line 4): the larger id loses.
    if (load_color(c, u) == cw && w > u) return {true, j + 1};
  }
  return {false, n};
}

#if GCOL_VECTOR_GATHER
/// F's capacity in all 16 lanes, for an unsigned compare against
/// colors. Colors are < 2^31, so the clamp keeps the compare exact.
inline __m512i capacity_lanes(const MarkerSet& f) {
  return _mm512_set1_epi32(static_cast<int>(
      std::min<std::size_t>(f.capacity(), std::size_t{1} << 31)));
}

/// AVX-512 body of forbid_colors: vpgatherdd fetches 16 neighbor
/// colors, one unmasked vpscatterdd stamps them into F. kNoColor lanes
/// (-1) and the vertex's own lane land on F's sink slot (slots()[-1]),
/// so no mask is needed. A block holding a color at or beyond F's
/// capacity goes through the scalar body, whose insert grows F.
inline void forbid_colors_vector(color_t* c, const vid_t* ids, std::size_t n,
                                 vid_t self, MarkerSet& f) {
  const __m512i self_v = _mm512_set1_epi32(self);
  const __m512i sink_v = _mm512_set1_epi32(kNoColor);
  const __m512i stamp_v = _mm512_set1_epi32(static_cast<int>(f.stamp()));
  __m512i cap_v = capacity_lanes(f);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512i idx = _mm512_loadu_si512(ids + j);
    // Full-mask form of vpgatherdd: the unmasked intrinsic's undefined
    // pass-through trips GCC's -Wmaybe-uninitialized.
    const __m512i col = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), static_cast<__mmask16>(0xFFFF), idx, c, 4);
    const __mmask16 own = _mm512_cmpeq_epi32_mask(idx, self_v);
    const __mmask16 live = _mm512_mask_cmpneq_epi32_mask(
        static_cast<__mmask16>(~own), col, sink_v);
    if (_mm512_mask_cmpge_epu32_mask(live, col, cap_v) != 0) {
      forbid_colors_scalar(c, ids + j, 16, self, f);
      cap_v = capacity_lanes(f);
      continue;
    }
    _mm512_i32scatter_epi32(f.slots(), _mm512_mask_mov_epi32(col, own, sink_v),
                            stamp_v, 4);
  }
  forbid_colors_scalar(c, ids + j, n - j, self, f);
}

/// AVX-512 body of first_lower_clash: a masked vpgatherdd loads only
/// the lanes with id < w and compares them with cw. Alg. 5's tie-break
/// means a larger id can never make w lose, so those colors are never
/// loaded; the first hit's lane gives the scalar loop's exact count.
inline ClashScan first_lower_clash_vector(color_t* c, const vid_t* ids,
                                          std::size_t n, vid_t w,
                                          color_t cw) {
  const __m512i w_v = _mm512_set1_epi32(w);
  const __m512i cw_v = _mm512_set1_epi32(cw);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512i idx = _mm512_loadu_si512(ids + j);
    const __mmask16 lower = _mm512_cmplt_epi32_mask(idx, w_v);
    const __m512i col =
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), lower, idx, c, 4);
    const __mmask16 hit = _mm512_mask_cmpeq_epi32_mask(lower, col, cw_v);
    if (hit != 0)
      return {true, j + static_cast<std::size_t>(std::countr_zero(
                            static_cast<unsigned>(hit))) +
                        1};
  }
  ClashScan tail = first_lower_clash_scalar(c, ids + j, n - j, w, cw);
  tail.visited += j;
  return tail;
}
#endif

/// Alg. 4's distance-2 gather over one list: insert into F the color of
/// every ids[j] other than `self`, skipping uncolored ones. The caller
/// counts ids.size() visited entries, as the scalar loop always did.
inline void forbid_colors(color_t* c, std::span<const vid_t> ids, vid_t self,
                          MarkerSet& f) {
#if GCOL_VECTOR_GATHER
  forbid_colors_vector(c, ids.data(), ids.size(), self, f);
#else
  forbid_colors_scalar(c, ids.data(), ids.size(), self, f);
#endif
}

/// Alg. 5's distance-2 test over one list: does some ids[j] < w hold
/// w's color cw? `visited` is the entry count the scalar loop adds to
/// edges_visited: up to and including the clash, or the whole list.
inline ClashScan first_lower_clash(color_t* c, std::span<const vid_t> ids,
                                   vid_t w, color_t cw) {
#if GCOL_VECTOR_GATHER
  return first_lower_clash_vector(c, ids.data(), ids.size(), w, cw);
#else
  return first_lower_clash_scalar(c, ids.data(), ids.size(), w, cw);
#endif
}

/// Smallest color >= start not in F (plain first-fit).
inline color_t pick_up(const MarkerSet& f, color_t start,
                       std::uint64_t& probes) {
  GCOL_ASSUME(start >= 0);
  color_t col = start;
  while (f.contains(col)) {
    ++col;
    GCOL_COUNT(++probes);
  }
  GCOL_COUNT(++probes);
  return col;
}

/// Largest color <= start not in F, or kNoColor when the scan passes 0.
inline color_t pick_down(const MarkerSet& f, color_t start,
                         std::uint64_t& probes) {
  color_t col = start;
  while (col >= 0 && f.contains(col)) {
    --col;
    GCOL_COUNT(++probes);
  }
  GCOL_COUNT(++probes);
  return col;
}

// Word-parallel variants: the scan happens inside BitMarkerSet /
// TwoLevelBitMarkerSet, one probe counted per 64-color word (or
// skipped-run summary read) instead of per color.
inline color_t pick_up(const BitMarkerSet& f, color_t start,
                       std::uint64_t& probes) {
  return f.first_free_at_or_above(start, probes);
}

inline color_t pick_down(const BitMarkerSet& f, color_t start,
                         std::uint64_t& probes) {
  return f.first_free_at_or_below(start, probes);
}

inline color_t pick_up(const TwoLevelBitMarkerSet& f, color_t start,
                       std::uint64_t& probes) {
  return f.first_free_at_or_above(start, probes);
}

inline color_t pick_down(const TwoLevelBitMarkerSet& f, color_t start,
                         std::uint64_t& probes) {
  return f.first_free_at_or_below(start, probes);
}

/// Forbidden-set policies: which per-thread set the kernels mark into
/// and whether they deduplicate distance-2 neighbors through the
/// workspace's visited set. The stamped policy is byte-for-byte the
/// paper's behavior (no dedup — the Θ(Σ|vtxs(v)|²) walk is part of what
/// the reproduction measures), and its vertex kernels walk each list
/// through forbid_colors / first_lower_clash; the word-parallel
/// policies dedup through the workspace's bit-packed visited set, one
/// entry at a time. kAdaptive is resolved to one of these per phase by
/// the drivers (AdaptiveFsEngine) and never reaches the kernel
/// templates.
struct StampedPolicy {
  using Set = MarkerSet;
  static constexpr bool kDedupNeighbors = false;
  static MarkerSet& forbidden(ThreadWorkspace& t) { return t.forbidden; }
  static BitMarkerSet& visited(ThreadWorkspace& t) { return t.visited_bits; }
};

struct BitmapPolicy {
  using Set = BitMarkerSet;
  static constexpr bool kDedupNeighbors = true;
  static BitMarkerSet& forbidden(ThreadWorkspace& t) {
    return t.forbidden_bits;
  }
  static BitMarkerSet& visited(ThreadWorkspace& t) { return t.visited_bits; }
};

struct TwoLevelPolicy {
  using Set = TwoLevelBitMarkerSet;
  static constexpr bool kDedupNeighbors = true;
  static TwoLevelBitMarkerSet& forbidden(ThreadWorkspace& t) {
    return t.forbidden_two;
  }
  static BitMarkerSet& visited(ThreadWorkspace& t) { return t.visited_bits; }
};

/// Run `fn` with the ForbiddenSet policy selected by `fset`. kAdaptive
/// must be resolved by the caller (the drivers ask AdaptiveFsEngine for
/// a concrete kind per phase); it is a contract violation here.
template <class Fn>
decltype(auto) with_forbidden_set(ForbiddenSetKind fset, Fn&& fn) {
  GCOL_CONTRACT(fset != ForbiddenSetKind::kAdaptive,
                "kAdaptive must be resolved to a concrete representation "
                "before kernel dispatch");
  switch (fset) {
    case ForbiddenSetKind::kBitmap:
      return fn(BitmapPolicy{});
    case ForbiddenSetKind::kTwoLevel:
      return fn(TwoLevelPolicy{});
    case ForbiddenSetKind::kStamped:
    case ForbiddenSetKind::kAdaptive:  // contract-checked above
    default:
      return fn(StampedPolicy{});
  }
}

/// Run `fn` with the balance policy lifted to a compile-time constant.
template <class Fn>
decltype(auto) with_balance(BalancePolicy b, Fn&& fn) {
  switch (b) {
    case BalancePolicy::kB1:
      return fn(
          std::integral_constant<BalancePolicy, BalancePolicy::kB1>{});
    case BalancePolicy::kB2:
      return fn(
          std::integral_constant<BalancePolicy, BalancePolicy::kB2>{});
    case BalancePolicy::kNone:
    default:
      return fn(
          std::integral_constant<BalancePolicy, BalancePolicy::kNone>{});
  }
}

/// Per-thread counter slots, cache-line padded; replaces the
/// `omp critical` merge at phase exit with a plain post-region sum.
class CounterSlots {
 public:
  explicit CounterSlots(int threads)
      : slots_(static_cast<std::size_t>(threads > 0 ? threads : 1)) {}

  /// Worker-side hand-off; must be the thread's last action in the
  /// parallel region. The release increment pairs with merge_into's
  /// acquire load, ordering *everything* the worker wrote (counters,
  /// private queues, workspace state) before the main thread's
  /// post-region reads. Semantically redundant — the region's implicit
  /// barrier already orders it — but an uninstrumented libgomp runs
  /// that barrier on raw futexes ThreadSanitizer cannot see, and this
  /// is the edge it can.
  void publish(int tid, const KernelCounters& local) {
    slots_[static_cast<std::size_t>(tid)].value = local;
    published_.fetch_add(1, std::memory_order_release);
  }

  /// Main-thread merge; call only after the parallel region joined.
  void merge_into(KernelCounters& total) const {
    (void)published_.load(std::memory_order_acquire);
    for (const Slot& s : slots_) total += s.value;
  }

 private:
  struct alignas(64) Slot {
    KernelCounters value;
  };
  std::vector<Slot> slots_;
  std::atomic<int> published_{0};
};

/// Per-thread, per-round state of the balancing heuristics.
struct PolicyState {
  color_t col_max = 0;   // B1 & B2 (Alg. 11 l.1, Alg. 12 l.1)
  color_t col_next = 0;  // B2 only (Alg. 12 l.2)
};

/// Vertex-kernel color selection (Algorithms 2 / 11 / 12). `w` is the
/// vertex id (B1 alternates policy on its parity).
template <BalancePolicy B, class Set>
inline color_t pick_vertex_color(PolicyState& st, const Set& f,
                                 vid_t w, std::uint64_t& probes) {
  if constexpr (B == BalancePolicy::kNone) {
    (void)st;
    (void)w;
    return pick_up(f, 0, probes);
  } else if constexpr (B == BalancePolicy::kB1) {
    color_t col;
    if (w % 2 == 0) {
      col = pick_down(f, st.col_max, probes);
      if (col == kNoColor) col = pick_up(f, st.col_max + 1, probes);
    } else {
      col = pick_up(f, 0, probes);
    }
    st.col_max = std::max(st.col_max, col);
    return col;
  } else {  // kB2
    color_t col = pick_up(f, st.col_next, probes);
    if (col > st.col_max) col = pick_up(f, 0, probes);
    st.col_max = std::max(st.col_max, col);
    st.col_next = std::min<color_t>(col + 1, st.col_max / 3 + 1);
    return col;
  }
}

/// Net-kernel coloring of one net's local queue (Algorithm 8 lines 9-14
/// and its B1/B2 "net-based variants"). `start` is |vtxs(v)|-1 for BGPC
/// and |nbor(v)| for D2GC (Lemma 1's reverse-first-fit origin). After
/// every assignment the color is added to F so two local-queue vertices
/// never clash within this net. `local.max_color` is maintained
/// unconditionally — the adaptive engine reads it as the running color
/// bound — while the other counters stay GCOL_COUNT-gated.
template <BalancePolicy B, class Set>
inline void color_local_queue(PolicyState& st, Set& f,
                              const std::vector<vid_t>& wlocal,
                              vid_t net_id, color_t start, color_t* c,
                              KernelCounters& local) {
  std::uint64_t& probes = local.color_probes;
  if constexpr (B == BalancePolicy::kNone) {
    (void)st;
    (void)net_id;
    color_t col = start;
    for (const vid_t u : wlocal) {
      col = pick_down(f, col, probes);
      if (col == kNoColor) {
        // Unreachable by Lemma 1's counting argument under a fixed F,
        // but a concurrent-round race can theoretically overfill F;
        // recover with an upward scan instead of corrupting state.
        col = pick_up(f, start + 1, probes);
        store_color(c, u, col);
        f.insert(col);
        local.max_color = std::max(local.max_color, col);
        GCOL_COUNT(++local.colored);
        col = start;
        continue;
      }
      store_color(c, u, col);
      f.insert(col);  // shields the recovery path from reusing col
      local.max_color = std::max(local.max_color, col);
      GCOL_COUNT(++local.colored);
      --col;
    }
  } else if constexpr (B == BalancePolicy::kB1) {
    // Parity of the *net* alternates the two scan directions.
    if (net_id % 2 == 0) {
      for (const vid_t u : wlocal) {
        color_t col = pick_down(f, st.col_max, probes);
        if (col == kNoColor) col = pick_up(f, st.col_max + 1, probes);
        store_color(c, u, col);
        f.insert(col);
        st.col_max = std::max(st.col_max, col);
        local.max_color = std::max(local.max_color, col);
        GCOL_COUNT(++local.colored);
      }
    } else {
      for (const vid_t u : wlocal) {
        const color_t col = pick_up(f, 0, probes);
        store_color(c, u, col);
        f.insert(col);
        st.col_max = std::max(st.col_max, col);
        local.max_color = std::max(local.max_color, col);
        GCOL_COUNT(++local.colored);
      }
    }
  } else {  // kB2
    (void)net_id;
    for (const vid_t u : wlocal) {
      color_t col = pick_up(f, st.col_next, probes);
      if (col > st.col_max) col = pick_up(f, 0, probes);
      store_color(c, u, col);
      f.insert(col);
      st.col_max = std::max(st.col_max, col);
      st.col_next = std::min<color_t>(col + 1, st.col_max / 3 + 1);
      local.max_color = std::max(local.max_color, col);
      GCOL_COUNT(++local.colored);
    }
  }
}

}  // namespace gcol::detail
