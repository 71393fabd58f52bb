// The speculative engine's phase kernels (Algorithms 4-10), one set for
// every net view (greedcolor/graph/net_view.hpp). The public entry
// points are color_bgpc / color_d2gc / color_d1gc, all run by
// speculative_color() in engine.cpp; the Table I harness reaches Alg. 6
// via ColoringOptions::net_v1. Each thread's forbidden set is the
// stamped MarkerSet in its ThreadWorkspace.
//
// A view with kCenter adds one step per kernel, compiled in by
// `if constexpr`: the vertex kernels (and forbid_nets, which the
// sequential paths share) test the net's center v itself (one counted
// visit) before walking others(v), and the net kernels
// take the center first (uncounted) and start reverse first-fit one
// slot higher, at |others(v)| (Alg. 9/10). With that the closed view
// reproduces the D2GC kernels exactly, colors and counters alike.
//
// Alg. 4 reads a large net's color summary (NetSummaries) instead of
// walking its members, and Alg. 5 skips a large net in which its
// vertex's color does not repeat; the walk stays for small nets, for
// the colors the summaries cannot answer, and for the net kernels.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/util/counters.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/work_queue.hpp"
#include "kernels_common.hpp"

namespace gcol::detail {

/// Alg. 4's forbidden set for w: mark in F the color of every member of
/// w's nets other than w. Returns the entries walked (edges_visited).
template <class V>
[[gnu::always_inline]] inline std::size_t forbid_nets(const V& view,
                                                     color_t* c, vid_t w,
                                                     MarkerSet& f) {
  std::size_t visited = 0;
  for (const vid_t v : view.nets(w)) {
    if constexpr (V::kCenter) {
      ++visited;
      const color_t cv = load_color(c, v);
      if (cv != kNoColor) f.insert(cv);
    }
    const auto vs = view.others(v);
    visited += vs.size();
    forbid_colors(c, vs, w, f);
  }
  return visited;
}

/// Color summaries of the large nets, the Alg. 4 fast path.
///
/// A net is large when it has at least max(64, W) members (its center
/// included), where W = cap / 64 words and cap = min(color bound,
/// max(4·L, 1024)) rounded up to a multiple of 64, L being the largest
/// net. A large net keeps W present words, where bit k is set when a
/// member holds color k < cap, and W repeat words, where bit k is set
/// when two or more members (the center included) hold it; the words
/// cost at most 16 bytes per member. One high-water mark, shared by all
/// nets, counts the present words that hold any bit: a vertex ORs only
/// those, per large net, instead of loading every member's color.
///
/// Bits are only ever added during a color phase; conflict removal does
/// not clear them. So a vertex-colored round starts from zeroed words
/// (round 1, every vertex uncolored) or rebuilds them from c[] (any
/// later round), and then the words hold exactly the colors below cap
/// that the members hold, and which of them repeat. With one thread, the
/// summary path therefore picks the same color with the same probe count
/// as the exact walk.
///
/// Alg. 5 follows only a vertex-colored phase (options.validate()
/// forces net_conflict_rounds >= net_color_rounds), and it only ever
/// uncolors. So when a large net's repeat bit for w's color is clear at
/// the phase's end, w is the only member holding that color, and the
/// walk of that net finds no clash whatever the interleaving. A vertex
/// recolored in one phase (a fault-injected stale write) only leaves
/// extra bits, which cost walks, never a missed clash.
class NetSummaries {
 public:
  /// Disabled: no net is large.
  NetSummaries() = default;

  template <class V>
  NetSummaries(const V& view, color_t color_bound) {
    // Distance-1 nets have one member each: none is ever large.
    if constexpr (kNetSummaries && V::kNetKernels) plan(view, color_bound);
  }

  [[nodiscard]] bool enabled() const { return !large_.empty(); }
  [[nodiscard]] std::size_t words_per_net() const { return words_per_net_; }

  /// Words [live_words(), W) are zero in every net.
  [[nodiscard]] std::size_t live_words() const {
    return static_cast<std::size_t>(load_summary_word(&mark_->live, 0));
  }
  void clear_live_words() const { store_summary_word(&mark_->live, 0, 0); }

  /// Set col's bit (col < cap) in the words of large net v, and its
  /// repeat bit when a member already held it.
  void publish(vid_t v, color_t col) const {
    if (publish_summary_bit(words(v), col))
      (void)publish_summary_bit(repeats(v), col);
    raise_live_words((static_cast<std::size_t>(col) >> 6) + 1);
  }

  void raise_live_words(std::size_t k) const {
    raise_summary_mark(&mark_->live, k);
  }

  /// Whether some large net of w already holds col (col < cap).
  template <class V>
  [[nodiscard]] bool holds_in_any(const V& view, vid_t w, color_t col) const {
    for (const vid_t v : view.nets(w))
      if (is_large(view.others(v).size() + V::kCenter) &&
          summary_holds(words(v), col))
        return true;
    return false;
  }

  [[nodiscard]] color_t cap() const { return cap_; }
  [[nodiscard]] const std::vector<vid_t>& large_nets() const {
    return large_;
  }

  /// Whether a net with this many members, its center included, is
  /// large (never when the summaries are disabled).
  [[nodiscard]] bool is_large(std::size_t size_with_center) const {
    return size_with_center >= threshold_;
  }

  /// The present words of large net v; its repeat words follow them.
  [[nodiscard]] std::uint64_t* words(vid_t v) const {
    return words_.get() +
           static_cast<std::size_t>(slot_[static_cast<std::size_t>(v)]) * 2 *
               words_per_net_;
  }

  /// The repeat words of large net v.
  [[nodiscard]] std::uint64_t* repeats(vid_t v) const {
    return words(v) + words_per_net_;
  }

  /// Whether Alg. 5 must walk net v, of this many members (its center
  /// included), for a vertex of color col < cap: v is small, or col
  /// repeats in v.
  [[nodiscard]] bool may_clash(vid_t v, std::size_t size_with_center,
                               color_t col) const {
    return !is_large(size_with_center) || summary_holds(repeats(v), col);
  }

 private:
  template <class V>
  void plan(const V& view, color_t color_bound) {
    const std::int64_t cap = std::min<std::int64_t>(
        color_bound,
        std::max<std::int64_t>(std::int64_t{4} * view.max_net_size(), 1024));
    if (cap <= 0) return;
    const auto words = static_cast<std::size_t>((cap + 63) / 64);
    const std::size_t threshold = std::max<std::size_t>(64, words);
    const vid_t nn = view.num_nets();
    for (vid_t v = 0; v < nn; ++v)
      if (view.others(v).size() + V::kCenter >= threshold)
        large_.push_back(v);
    if (large_.empty()) return;
    words_per_net_ = words;
    cap_ = static_cast<color_t>(words * 64);
    threshold_ = threshold;
    slot_.assign(static_cast<std::size_t>(nn), 0);
    for (std::size_t i = 0; i < large_.size(); ++i)
      slot_[static_cast<std::size_t>(large_[i])] = static_cast<vid_t>(i);
    // Zeroed or rebuilt on the team before every vertex-colored round.
    words_ = std::make_unique_for_overwrite<std::uint64_t[]>(large_.size() *
                                                             2 * words);
    mark_ = std::make_unique<Mark>();
  }

  /// The high-water mark on a line of its own: every vertex reads it,
  /// and it grows at most W times per phase.
  struct alignas(64) Mark {
    std::uint64_t live = 0;
  };

  std::vector<vid_t> large_;
  std::vector<vid_t> slot_;  // net id -> index in large_ (large nets only)
  std::unique_ptr<std::uint64_t[]> words_;
  std::unique_ptr<Mark> mark_;
  std::size_t words_per_net_ = 0;
  std::size_t threshold_ = std::numeric_limits<std::size_t>::max();
  color_t cap_ = 0;
};

/// Start a vertex-colored round: zero every large net's present and
/// repeat words (`c` null: every vertex is uncolored) or rebuild them
/// from c[]. One thread owns each net, so plain relaxed loads and stores
/// suffice. O(Σ large |net|).
template <class V>
void reset_summaries(const V& view, const color_t* c, const NetSummaries& s,
                     int threads) {
  s.clear_live_words();
  const std::vector<vid_t>& large = s.large_nets();
  const auto nl = static_cast<std::int64_t>(large.size());
  const std::size_t nw = s.words_per_net();
  const color_t cap = s.cap();
#pragma omp parallel for schedule(dynamic, 16) num_threads(threads) \
    default(none) shared(view, c, s, large) firstprivate(nl, nw, cap)
  for (std::int64_t i = 0; i < nl; ++i) {
    const vid_t v = large[static_cast<std::size_t>(i)];
    std::uint64_t* words = s.words(v);
    std::uint64_t* repeats = s.repeats(v);
    for (std::size_t k = 0; k < 2 * nw; ++k) store_summary_word(words, k, 0);
    if (c == nullptr) continue;
    std::size_t live = 0;
    if constexpr (V::kCenter)
      live = own_summary_bit(words, repeats, load_color(c, v), cap);
    for (const vid_t u : view.others(v))
      live = std::max(live,
                      own_summary_bit(words, repeats, load_color(c, u), cap));
    s.raise_live_words(live);
  }
}

/// Re-picks a vertex may make when a peer published its pick first.
inline constexpr int kSummaryRepicks = 2;

/// Alg. 4 + policy for one vertex w: F is the OR of w's large-net
/// summaries plus the colors of its small nets, walked. When the pick
/// would probe a color at or beyond the cap, or w is already colored
/// (a fault-injected stale write; its own bit would sit in the
/// summaries), w takes the exact walk (forbid_nets) instead. Publishes
/// the color into the summaries of the large nets w belongs to. Counts
/// Alg. 4's logical entries (edges_visited) and the pick's probes
/// exactly as the exact walk does.
template <class V, BalancePolicy B>
[[gnu::always_inline]] inline color_t color_one_vertex(
    const V& view, color_t* c, vid_t w, const NetSummaries& s,
    ThreadWorkspace& tws, PolicyState& st, KernelCounters& local,
    BalanceTag<B> /*policy*/) {
  MarkerSet& f = tws.forbidden;
  std::uint64_t* const bits = tws.summary_bits.data();
  f.clear();
  [[maybe_unused]] std::size_t visited = 0;
  bool summarized = false;
  const bool summaries = s.enabled() && load_color(c, w) == kNoColor;
  std::size_t live = summaries ? s.live_words() : 0;
  for (const vid_t v : view.nets(w)) {
    const auto vs = view.others(v);
    visited += V::kCenter + vs.size();
    if (summaries && s.is_large(vs.size() + V::kCenter)) {
      gather_summary(s.words(v), live, bits, !summarized);
      summarized = true;
      continue;
    }
    if constexpr (V::kCenter) {
      const color_t cv = load_color(c, v);
      if (cv != kNoColor) f.insert(cv);
    }
    forbid_colors(c, vs, w, f);
  }
  GCOL_COUNT(local.edges_visited += visited);
  color_t col = kNoColor;
  if (summarized) {
    col = try_pick_vertex_color<B>(st, SummarySet{bits, live, f, s.cap()}, w,
                                   local.color_probes);
    // The words were read all at once, before the pick, so a peer that
    // published col into one of w's large nets since then would clash
    // with w. Re-read them and pick again (a bounded number of times)
    // rather than leave the clash to conflict removal. Never fires with
    // one thread: nobody else publishes.
    for (int again = 0; again < kSummaryRepicks && col != kNoColor &&
                        s.holds_in_any(view, w, col);
         ++again) {
      live = s.live_words();
      bool first = true;
      for (const vid_t v : view.nets(w)) {
        if (!s.is_large(view.others(v).size() + V::kCenter)) continue;
        gather_summary(s.words(v), live, bits, first);
        first = false;
      }
      col = try_pick_vertex_color<B>(st, SummarySet{bits, live, f, s.cap()},
                                     w, local.color_probes);
    }
    if (col == kNoColor) {
      f.clear();
      (void)forbid_nets(view, c, w, f);
    }
  }
  if (col == kNoColor) col = pick_vertex_color<B>(st, f, w, local.color_probes);
  store_color(c, w, col);
  if (s.enabled() && col < s.cap()) {
    for (const vid_t v : view.nets(w))
      if (s.is_large(view.others(v).size() + V::kCenter)) s.publish(v, col);
    if constexpr (V::kCenter) {
      // w is also the center of its own net N[w].
      if (s.is_large(view.others(w).size() + 1)) s.publish(w, col);
    }
  }
  return col;
}

/// Alg. 4 + policy: vertex-based optimistic coloring of every w in W.
template <class V, BalancePolicy B>
void color_vertex(const V& view, const std::vector<vid_t>& w, color_t* c,
                  const NetSummaries& summaries,
                  std::vector<ThreadWorkspace>& ws, int chunk, int threads,
                  KernelCounters& counters) {
  const auto n = static_cast<std::int64_t>(w.size());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(view, w, c, summaries, ws, slots) firstprivate(chunk, n)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    PolicyState st;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      const color_t col =
          color_one_vertex(view, c, w[static_cast<std::size_t>(i)], summaries,
                           tws, st, local, BalanceTag<B>{});
      GCOL_COUNT(local.max_color = std::max(local.max_color, col));
      GCOL_COUNT(++local.colored);
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
}

/// Alg. 8 / 9 + policy: two-pass net-based coloring; colors every
/// vertex that is uncolored or locally duplicated, across all nets.
template <class V, BalancePolicy B>
void color_net(const V& view, color_t* c, std::vector<ThreadWorkspace>& ws,
               int chunk, int threads, KernelCounters& counters) {
  const auto nn = static_cast<std::int64_t>(view.num_nets());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(view, c, ws, slots) firstprivate(chunk, nn)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    MarkerSet& f = tws.forbidden;
    std::vector<vid_t>& wlocal = tws.local_queue;
    PolicyState st;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < nn; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      wlocal.clear();
      if constexpr (V::kCenter) {
        // Alg. 9 lines 4-7: the center is a member of its own net.
        const color_t cv = load_color(c, v);
        if (cv != kNoColor)
          f.insert(cv);
        else
          wlocal.push_back(v);
      }
      // Pass 1 (Alg. 8 lines 4-8): mark forbidden colors, queue the
      // vertices that are uncolored or locally color-duplicated.
      const auto vs = view.others(v);
      const std::size_t deg = vs.size();
      for (std::size_t j = 0; j < deg; ++j) {
        if (j + kColorPrefetchDist < deg)
          prefetch_color(c, vs[j + kColorPrefetchDist]);
        const vid_t u = vs[j];
        GCOL_COUNT(++local.edges_visited);
        const color_t cu = load_color(c, u);
        if (cu == kNoColor || f.test_and_set(cu)) wlocal.push_back(u);
      }
      if (wlocal.empty()) continue;
      // Pass 2 (lines 9-14): reverse first-fit from |net| - 1, or the
      // balancing variant.
      color_local_queue<B>(st, f, wlocal, v,
                           static_cast<color_t>(deg + V::kCenter) - 1, c,
                           local);
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
}

/// Alg. 6 (most-optimistic single-pass net coloring), first-fit or
/// reverse first-fit ("Alg. 6 + reverse" of Table I). BGPC only.
inline void color_net_v1(const BipartiteView& view, color_t* c,
                         std::vector<ThreadWorkspace>& ws, bool reverse,
                         int chunk, int threads, KernelCounters& counters) {
  const auto nn = static_cast<std::int64_t>(view.num_nets());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(view, c, ws, slots) firstprivate(chunk, nn, reverse)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    MarkerSet& f = tws.forbidden;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < nn; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      const auto vs = view.others(v);
      const std::size_t dsz = vs.size();
      const auto deg = static_cast<color_t>(dsz);
      color_t col = reverse ? deg - 1 : 0;  // net-level running cursor
      for (std::size_t j = 0; j < dsz; ++j) {
        if (j + kColorPrefetchDist < dsz)
          prefetch_color(c, vs[j + kColorPrefetchDist]);
        const vid_t u = vs[j];
        GCOL_COUNT(++local.edges_visited);
        color_t cu = load_color(c, u);
        if (cu == kNoColor || f.contains(cu)) {
          if (reverse) {
            col = pick_down(f, col, local.color_probes);
            if (col == kNoColor) col = pick_up(f, deg, local.color_probes);
          } else {
            col = pick_up(f, col, local.color_probes);
          }
          cu = col;
          store_color(c, u, cu);
          GCOL_COUNT(local.max_color = std::max(local.max_color, cu));
          GCOL_COUNT(++local.colored);
        }
        f.insert(cu);
      }
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
}

/// Alg. 5: vertex-based conflict removal over W. Of two clashing
/// vertices the larger id loses: it is uncolored and collected into
/// `wnext` through the selected queue strategy. A vertex of color below
/// the summary cap skips every large net in which its color does not
/// repeat (see NetSummaries) and counts the entries the walk would have
/// found clash-free, so edges_visited counts the same logical entries.
template <class V>
void conflict_vertex(const V& view, const std::vector<vid_t>& w, color_t* c,
                     const NetSummaries& summaries, QueuePolicy queue,
                     int chunk, int threads, std::vector<vid_t>& wnext,
                     KernelCounters& counters) {
  const auto n = static_cast<std::int64_t>(w.size());
  SharedWorkQueue shared;
  LocalWorkQueues lazy;
  const bool use_shared = queue == QueuePolicy::kShared;
  if (use_shared)
    shared.reset(w.size());
  else
    lazy.configure(threads), lazy.begin_round();

  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(view, w, c, summaries, slots, shared, lazy) \
    firstprivate(chunk, n, use_shared)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      const vid_t wv = w[static_cast<std::size_t>(i)];
      const color_t cw = load_color(c, wv);
      if (cw == kNoColor) continue;  // already uncolored by a peer race
      const bool summarized = summaries.enabled() && cw < summaries.cap();
      bool conflicted = false;
      for (const vid_t v : view.nets(wv)) {
        if (summarized) {
          const std::size_t size = view.others(v).size() + V::kCenter;
          if (!summaries.may_clash(v, size, cw)) {
            GCOL_COUNT(local.edges_visited += size);
            continue;
          }
        }
        if constexpr (V::kCenter) {
          GCOL_COUNT(++local.edges_visited);
          conflicted = load_color(c, v) == cw && wv > v;
          if (conflicted) break;
        }
        const ClashScan scan = first_lower_clash(c, view.others(v), wv, cw);
        GCOL_COUNT(local.edges_visited += scan.visited);
        conflicted = scan.clash;
        if (conflicted) break;
      }
      if (conflicted) {
        GCOL_COUNT(++local.conflicts);
        store_color(c, wv, kNoColor);
        if (use_shared)
          shared.push(wv);
        else
          lazy.push(tid, wv);
      }
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
  if (use_shared)
    shared.swap_into(wnext);
  else
    lazy.merge_into(wnext);
}

/// Alg. 7 / 10: net-based conflict removal over every net; uncolored
/// vertices are deduplicated via an atomic exchange and collected
/// lazily.
template <class V>
void conflict_net(const V& view, color_t* c, std::vector<ThreadWorkspace>& ws,
                  int chunk, int threads, std::vector<vid_t>& wnext,
                  KernelCounters& counters) {
  const auto nn = static_cast<std::int64_t>(view.num_nets());
  LocalWorkQueues lazy(threads);
  lazy.begin_round();
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(view, c, ws, slots, lazy) firstprivate(chunk, nn)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    MarkerSet& f = tws.forbidden;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < nn; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      if constexpr (V::kCenter) {
        // Alg. 10 lines 3-4: the center's color comes first.
        const color_t cv = load_color(c, v);
        if (cv != kNoColor) f.insert(cv);
      }
      const auto vs = view.others(v);
      const std::size_t deg = vs.size();
      for (std::size_t j = 0; j < deg; ++j) {
        if (j + kColorPrefetchDist < deg)
          prefetch_color(c, vs[j + kColorPrefetchDist]);
        const vid_t u = vs[j];
        GCOL_COUNT(++local.edges_visited);
        const color_t cu = load_color(c, u);
        if (cu == kNoColor) continue;
        // First occurrence keeps the color; the exchange deduplicates
        // pushes when another net uncolors u concurrently.
        if (f.test_and_set(cu)) {
          if (exchange_uncolor(c, u) != kNoColor) {
            lazy.push(tid, u);
            GCOL_COUNT(++local.conflicts);
          }
        }
      }
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
  lazy.merge_into(wnext);
}

}  // namespace gcol::detail
