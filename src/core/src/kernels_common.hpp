// Internal helpers shared by the BGPC and D2GC kernel translation units:
// relaxed atomic access to the shared color array and to the large
// nets' color summaries (speculative phases race on both by design),
// the distance-2 walk over one adjacency list (scalar, or AVX-512
// gather/scatter where GCOL_VECTOR_GATHER allows), and the
// color-selection policies of Algorithms 2 (first-fit), 8 (reverse
// first-fit), 11 (B1) and 12 (B2).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "greedcolor/analyze/contract.hpp"
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

/// Read-only sweeps (the validity check) load a caller's const array
/// through the same seam. A load never writes, so the const_cast that
/// forms the atomic_ref is sound.
inline color_t load_color(const color_t* c, vid_t v) {
  return load_color(const_cast<color_t*>(c), v);
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

// --- Net color summaries ---------------------------------------------------
//
// A large net keeps one bit per color below the summary cap, set for the
// colors its members hold, and one repeat bit per color, set for the
// colors two or more members hold (NetSummaries, phase_kernels.hpp).
// Alg. 4 reads a large net's words instead of walking its members, and
// Alg. 5 skips a large net whose repeat bit for the vertex's color is
// clear, while peer threads set bits in them, so every word access is a
// relaxed atomic, like the color array's. GCOL_AUDIT and GCOL_MC builds
// keep the exact walk: their hooks must see every member's color load.

#if defined(GCOL_AUDIT) || defined(GCOL_MC)
inline constexpr bool kNetSummaries = false;
#else
inline constexpr bool kNetSummaries = true;
#endif

/// A load never writes, so the const_cast that forms the atomic_ref is
/// sound (as in load_color).
inline std::uint64_t load_summary_word(const std::uint64_t* words,
                                       std::size_t k) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t*>(words)[k])
      .load(std::memory_order_relaxed);
}

/// Overwrite one word. Only the owner of a net's words in a rebuild
/// (one thread per net) stores.
inline void store_summary_word(std::uint64_t* words, std::size_t k,
                               std::uint64_t bits) {
  std::atomic_ref<std::uint64_t>(words[k]).store(bits,
                                                 std::memory_order_relaxed);
}

/// Whether color col's bit (0 <= col < the cap) is set.
inline bool summary_holds(const std::uint64_t* words, color_t col) {
  return ((load_summary_word(words, static_cast<std::size_t>(col) >> 6) >>
           (col & 63)) &
          1) != 0;
}

/// Whether color col's bit (0 <= col < the cap) is set in any of `nets`.
inline bool any_summary_holds(std::span<const std::uint64_t* const> nets,
                              color_t col) {
  for (const std::uint64_t* words : nets)
    if (summary_holds(words, col)) return true;
  return false;
}

/// Set color col's bit (0 <= col < the cap): one relaxed fetch_or, so
/// concurrent publishers into one word never lose a bit. Returns whether
/// the bit was already set. Of two publishers of one bit, the later in
/// the word's modification order sees the earlier's bit, so at least
/// one of them returns true.
inline bool publish_summary_bit(std::uint64_t* words, color_t col) {
  const auto k = static_cast<std::size_t>(col) >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (col & 63);
  // A bit already set (a common color) skips the locked op.
  if (summary_holds(words, col)) return true;
  return (std::atomic_ref<std::uint64_t>(words[k]).fetch_or(
              bit, std::memory_order_relaxed) &
          bit) != 0;
}

/// Rebuild step: set color col's bit in words that only the calling
/// thread writes, so no locked op is needed; a bit already set goes
/// into `repeats` instead. Returns the number of words that now hold a
/// bit from col: (col >> 6) + 1, or 0 when col is kNoColor or at or
/// beyond the cap.
inline std::size_t own_summary_bit(std::uint64_t* words,
                                   std::uint64_t* repeats, color_t col,
                                   color_t cap) {
  if (col == kNoColor || col >= cap) return 0;
  const auto k = static_cast<std::size_t>(col) >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (col & 63);
  const std::uint64_t present = load_summary_word(words, k);
  if ((present & bit) != 0)
    store_summary_word(repeats, k, load_summary_word(repeats, k) | bit);
  else
    store_summary_word(words, k, present | bit);
  return k + 1;
}

/// Raise a summary high-water mark to at least k (a relaxed CAS max).
/// The mark only grows within a phase, so a mark already at or above k
/// costs one load.
inline void raise_summary_mark(std::uint64_t* mark, std::uint64_t k) {
  std::atomic_ref<std::uint64_t> ref(*mark);
  std::uint64_t cur = ref.load(std::memory_order_relaxed);
  while (cur < k &&
         !ref.compare_exchange_weak(cur, k, std::memory_order_relaxed)) {
  }
}

/// Alg. 4's forbidden set on the summary path: the present words of a
/// vertex's large nets (`nets`; in each, words [live, W) are zero) plus
/// the colors of its small nets, walked into `walked` (null when the
/// vertex has no small net). The picks below read it one 64-color word
/// at a time (forbidden_word), so a pick reads the summaries only as far
/// as it gets. A pick that reaches the cap cannot be answered: it sets
/// `overflow`, and the caller redoes the vertex with the exact walk.
struct SummarySet {
  std::span<const std::uint64_t* const> nets;
  std::size_t live;
  const MarkerSet* walked;
  color_t cap;
  mutable bool overflow = false;
};

// --- The distance-2 walk over one adjacency list -------------------------
//
// The helpers below and the color pickers further down are forced
// inline: the engine's one translation unit instantiates every kernel
// for every net view, which exceeds GCC's inlining budget, and an
// out-of-line call per adjacency list cost graphs with short lists
// (meshes) up to a fifth of the D2GC color phase (gcc 12, AVX-512
// Xeon).
//
// Every vertex kernel (and the sequential baselines) spends its time
// here: Θ(Σ|vtxs(v)|²) color loads and forbidden set inserts. Each
// helper has a scalar body (the reference, and the only body in
// GCOL_AUDIT / GCOL_MC / TSan builds, which must see every color access
// through load_color) and, under GCOL_VECTOR_GATHER, an AVX-512 body
// that handles 16 entries per step and hands lists shorter than 16 and
// the tail of longer ones to the scalar body. Both produce the same set
// and the same counts (tests/test_color_seam.cpp).

/// Scalar body of forbid_colors.
[[gnu::always_inline]] inline void forbid_colors_scalar(
    color_t* c, const vid_t* ids, std::size_t n, vid_t self, MarkerSet& f) {
  for (std::size_t j = 0; j < n; ++j) {
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
[[gnu::always_inline]] inline ClashScan first_lower_clash_scalar(
    color_t* c, const vid_t* ids, std::size_t n, vid_t w, color_t cw) {
  for (std::size_t j = 0; j < n; ++j) {
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
[[gnu::always_inline]] inline void forbid_colors_vector(
    color_t* c, const vid_t* ids, std::size_t n, vid_t self, MarkerSet& f) {
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
[[gnu::always_inline]] inline ClashScan first_lower_clash_vector(
    color_t* c, const vid_t* ids, std::size_t n, vid_t w, color_t cw) {
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
[[gnu::always_inline]] inline void forbid_colors(color_t* c,
                                                 std::span<const vid_t> ids,
                                                 vid_t self, MarkerSet& f) {
#if GCOL_VECTOR_GATHER
  forbid_colors_vector(c, ids.data(), ids.size(), self, f);
#else
  forbid_colors_scalar(c, ids.data(), ids.size(), self, f);
#endif
}

/// Alg. 5's distance-2 test over one list: does some ids[j] < w hold
/// w's color cw? `visited` is the entry count the scalar loop adds to
/// edges_visited: up to and including the clash, or the whole list.
[[gnu::always_inline]] inline ClashScan first_lower_clash(
    color_t* c, std::span<const vid_t> ids, vid_t w, color_t cw) {
#if GCOL_VECTOR_GATHER
  return first_lower_clash_vector(c, ids.data(), ids.size(), w, cw);
#else
  return first_lower_clash_scalar(c, ids.data(), ids.size(), w, cw);
#endif
}

/// The colors [64k, 64k + 64) that F holds, bit j for color 64k + j.
/// Slots at or beyond F's capacity read as absent, as in
/// MarkerSet::contains.
[[gnu::always_inline]] inline std::uint64_t walked_word(const MarkerSet& f,
                                                        std::size_t k) {
  const std::size_t base = k * 64;
  if (base >= f.capacity()) return 0;
  const std::size_t n = std::min<std::size_t>(64, f.capacity() - base);
  const std::uint32_t* slots = f.slots() + base;
  const std::uint32_t stamp = f.stamp();
  std::uint64_t bits = 0;
  for (std::size_t j = 0; j < n; ++j)
    bits |= static_cast<std::uint64_t>(slots[j] == stamp) << j;
  return bits;
}

/// The colors [64k, 64k + 64) in F (k < cap / 64): the OR of word k of
/// every listed net (none past `live`) and of the walked colors.
[[gnu::always_inline]] inline std::uint64_t forbidden_word(const SummarySet& f,
                                                           std::size_t k) {
  std::uint64_t bits = f.walked != nullptr ? walked_word(*f.walked, k) : 0;
  if (k < f.live)
    for (const std::uint64_t* words : f.nets)
      bits |= load_summary_word(words, k);
  return bits;
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

// The two picks over a SummarySet take 64 colors per step: the lowest
// (highest) clear bit of one forbidden word. They return the color and
// count the probes the per-color loops above would (one per color
// tested), and set `overflow` exactly when those loops would test a
// color at or beyond the cap.

/// pick_up over a SummarySet. A scan that finds every color in
/// [start, cap) taken returns the cap (start, if start >= cap).
[[gnu::always_inline]] inline color_t pick_up(const SummarySet& f,
                                              color_t start,
                                              std::uint64_t& probes) {
  GCOL_ASSUME(start >= 0);
  color_t got = std::max(start, f.cap);
  if (start < f.cap) {
    const auto words = static_cast<std::size_t>(f.cap) >> 6;
    auto k = static_cast<std::size_t>(start) >> 6;
    // The colors below start in its word count as taken.
    std::uint64_t taken =
        forbidden_word(f, k) | ((std::uint64_t{1} << (start & 63)) - 1);
    while (taken == ~std::uint64_t{0} && ++k < words)
      taken = forbidden_word(f, k);
    if (k < words)
      got = static_cast<color_t>(k * 64) + std::countr_one(taken);
  }
  if (got >= f.cap) f.overflow = true;
  GCOL_COUNT(probes += static_cast<std::uint64_t>(got - start) + 1);
  return got;
}

/// pick_down over a SummarySet. A start at or beyond the cap returns
/// start.
[[gnu::always_inline]] inline color_t pick_down(const SummarySet& f,
                                                color_t start,
                                                std::uint64_t& probes) {
  GCOL_ASSUME(start >= 0);
  color_t got = start;
  if (start >= f.cap) {
    f.overflow = true;
  } else {
    auto k = static_cast<std::size_t>(start) >> 6;
    // The colors above start in its word count as taken.
    std::uint64_t taken =
        forbidden_word(f, k) | (~std::uint64_t{1} << (start & 63));
    while (taken == ~std::uint64_t{0} && k > 0) taken = forbidden_word(f, --k);
    got = taken == ~std::uint64_t{0}
              ? kNoColor
              : static_cast<color_t>(k * 64 + 63) - std::countl_one(taken);
  }
  GCOL_COUNT(probes += static_cast<std::uint64_t>(start - got) + 1);
  return got;
}

/// A balance policy as a type, for deducing it from an argument.
template <BalancePolicy B>
using BalanceTag = std::integral_constant<BalancePolicy, B>;

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
[[gnu::always_inline]] inline color_t pick_vertex_color(
    PolicyState& st, const Set& f, vid_t w, std::uint64_t& probes) {
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

/// pick_vertex_color over a SummarySet. Commits the policy state and
/// the probe count only when no probe reached the cap; otherwise
/// returns kNoColor and leaves both as they were, for the exact walk's
/// pick to redo.
template <BalancePolicy B>
[[gnu::always_inline]] inline color_t try_pick_vertex_color(
    PolicyState& st, const SummarySet& f, vid_t w, std::uint64_t& probes) {
  PolicyState trial = st;
  std::uint64_t trial_probes = 0;
  const color_t col = pick_vertex_color<B>(trial, f, w, trial_probes);
  if (f.overflow) return kNoColor;
  st = trial;
  GCOL_COUNT(probes += trial_probes);
  return col;
}

/// Net-kernel coloring of one net's local queue (Algorithm 8 lines 9-14
/// and its B1/B2 "net-based variants"). `start` is |vtxs(v)|-1 for BGPC
/// and |nbor(v)| for D2GC (Lemma 1's reverse-first-fit origin). After
/// every assignment the color is added to F so two local-queue vertices
/// never clash within this net.
template <BalancePolicy B>
[[gnu::always_inline]] inline void color_local_queue(
    PolicyState& st, MarkerSet& f, const std::vector<vid_t>& wlocal,
    vid_t net_id, color_t start, color_t* c, KernelCounters& local) {
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
        GCOL_COUNT(local.max_color = std::max(local.max_color, col));
        GCOL_COUNT(++local.colored);
        col = start;
        continue;
      }
      store_color(c, u, col);
      f.insert(col);  // shields the recovery path from reusing col
      GCOL_COUNT(local.max_color = std::max(local.max_color, col));
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
        GCOL_COUNT(local.max_color = std::max(local.max_color, col));
        GCOL_COUNT(++local.colored);
      }
    } else {
      for (const vid_t u : wlocal) {
        const color_t col = pick_up(f, 0, probes);
        store_color(c, u, col);
        f.insert(col);
        st.col_max = std::max(st.col_max, col);
        GCOL_COUNT(local.max_color = std::max(local.max_color, col));
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
      GCOL_COUNT(local.max_color = std::max(local.max_color, col));
      GCOL_COUNT(++local.colored);
    }
  }
}

}  // namespace gcol::detail
