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
#pragma once

#include <omp.h>

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

/// Alg. 4 + policy: vertex-based optimistic coloring of every w in W.
template <class V, BalancePolicy B>
void color_vertex(const V& view, const std::vector<vid_t>& w, color_t* c,
                  std::vector<ThreadWorkspace>& ws, int chunk, int threads,
                  KernelCounters& counters) {
  const auto n = static_cast<std::int64_t>(w.size());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(view, w, c, ws, slots) firstprivate(chunk, n)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    MarkerSet& f = tws.forbidden;
    PolicyState st;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      const vid_t wv = w[static_cast<std::size_t>(i)];
      f.clear();
      [[maybe_unused]] const std::size_t visited =
          forbid_nets(view, c, wv, f);
      GCOL_COUNT(local.edges_visited += visited);
      const color_t col = pick_vertex_color<B>(st, f, wv, local.color_probes);
      store_color(c, wv, col);
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

/// Alg. 5: vertex-based conflict removal over W. Conflicting vertices
/// (ties broken toward the larger id) are uncolored and collected into
/// `wnext` through the selected queue strategy.
template <class V>
void conflict_vertex(const V& view, const std::vector<vid_t>& w, color_t* c,
                     QueuePolicy queue, int chunk, int threads,
                     std::vector<vid_t>& wnext, KernelCounters& counters) {
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
    shared(view, w, c, slots, shared, lazy) \
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
      bool conflicted = false;
      for (const vid_t v : view.nets(wv)) {
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
