#include "d2gc_kernels.hpp"

#include <omp.h>

#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/work_queue.hpp"
#include "kernels_common.hpp"

namespace gcol::detail {

namespace {

// Same policy structure as bgpc_kernels.cpp (the stamped distance-2
// walks go through the kernels_common.hpp seam). In the dedup (bitmap)
// mode the visited set suppresses repeated color loads for vertices
// reached through several shared neighbors, but a distance-1 neighbor's
// adjacency list is always walked — its neighbors are the distance-2
// sources — and `edges_visited` keeps counting every adjacency entry.

template <BalancePolicy B, class FS>
void color_vertex_impl(const Graph& g, const std::vector<vid_t>& w,
                       color_t* c, std::vector<ThreadWorkspace>& ws,
                       int chunk, int threads, KernelCounters& counters) {
  const auto n = static_cast<std::int64_t>(w.size());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(g, w, c, ws, slots) firstprivate(chunk, n)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    typename FS::Set& f = FS::forbidden(tws);
    [[maybe_unused]] BitMarkerSet& visited = FS::visited(tws);
    PolicyState st;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      const vid_t wv = w[static_cast<std::size_t>(i)];
      f.clear();
      if constexpr (FS::kDedupNeighbors) {
        visited.clear();
        visited.insert(wv);
      }
      for (const vid_t u : g.neighbors(wv)) {
        GCOL_COUNT(++local.edges_visited);
        bool mark_u = true;
        if constexpr (FS::kDedupNeighbors) mark_u = !visited.test_and_set(u);
        if (mark_u) {
          const color_t cu = load_color(c, u);
          if (cu != kNoColor) f.insert(cu);  // distance-1 neighbor
        }
        const auto xs = g.neighbors(u);
        GCOL_COUNT(local.edges_visited += xs.size());
        if constexpr (FS::kDedupNeighbors) {
          const std::size_t deg = xs.size();
          for (std::size_t j = 0; j < deg; ++j) {
            // Distance-2 gather: random color loads; hint a few ahead.
            if (j + kColorPrefetchDist < deg)
              prefetch_color(c, xs[j + kColorPrefetchDist]);
            const vid_t x = xs[j];
            if (visited.test_and_set(x)) continue;  // also skips x == wv
            const color_t cx = load_color(c, x);
            if (cx != kNoColor) f.insert(cx);  // distance-2 neighbor
          }
        } else {
          forbid_colors(c, xs, wv, f);  // distance-2 neighbors
        }
      }
      const color_t col = pick_vertex_color<B>(st, f, wv, local.color_probes);
      store_color(c, wv, col);
      local.max_color = std::max(local.max_color, col);
      GCOL_COUNT(++local.colored);
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
}

template <BalancePolicy B, class FS>
void color_net_impl(const Graph& g, color_t* c,
                    std::vector<ThreadWorkspace>& ws, int chunk, int threads,
                    KernelCounters& counters) {
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(g, c, ws, slots) firstprivate(chunk, n)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    typename FS::Set& f = FS::forbidden(tws);
    std::vector<vid_t>& wlocal = tws.local_queue;
    PolicyState st;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < n; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      wlocal.clear();
      // Alg. 9 lines 4-7: the middle vertex itself is part of the net.
      const color_t cv = load_color(c, v);
      if (cv != kNoColor)
        f.insert(cv);
      else
        wlocal.push_back(v);
      // Lines 8-12: distance-1 neighbors.
      const auto us = g.neighbors(v);
      const std::size_t deg = us.size();
      for (std::size_t j = 0; j < deg; ++j) {
        if (j + kColorPrefetchDist < deg)
          prefetch_color(c, us[j + kColorPrefetchDist]);
        const vid_t u = us[j];
        GCOL_COUNT(++local.edges_visited);
        const color_t cu = load_color(c, u);
        if (cu == kNoColor || f.test_and_set(cu)) wlocal.push_back(u);
      }
      if (wlocal.empty()) continue;
      // Lines 13-18: reverse first-fit from |nbor(v)| (one more than
      // BGPC's start: the middle vertex occupies a slot too).
      color_local_queue<B>(st, f, wlocal, v, g.degree(v), c, local);
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
}

template <class FS>
void conflict_vertex_impl(const Graph& g, const std::vector<vid_t>& w,
                          color_t* c, std::vector<ThreadWorkspace>& ws,
                          QueuePolicy queue, int chunk, int threads,
                          std::vector<vid_t>& wnext,
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
    shared(g, w, c, ws, slots, shared, lazy) \
    firstprivate(chunk, n, use_shared)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    [[maybe_unused]] BitMarkerSet& visited =
        FS::visited(ws[static_cast<std::size_t>(tid)]);
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      const vid_t wv = w[static_cast<std::size_t>(i)];
      const color_t cw = load_color(c, wv);
      if (cw == kNoColor) continue;
      if constexpr (FS::kDedupNeighbors) {
        visited.clear();
        visited.insert(wv);
      }
      bool conflicted = false;
      for (const vid_t u : g.neighbors(wv)) {
        GCOL_COUNT(++local.edges_visited);
        bool check_u = true;
        if constexpr (FS::kDedupNeighbors) check_u = !visited.test_and_set(u);
        if (check_u && load_color(c, u) == cw && wv > u) {  // distance-1
          conflicted = true;
          break;
        }
        const auto xs = g.neighbors(u);
        if constexpr (FS::kDedupNeighbors) {
          const std::size_t deg = xs.size();
          for (std::size_t j = 0; j < deg; ++j) {
            if (j + kColorPrefetchDist < deg)
              prefetch_color(c, xs[j + kColorPrefetchDist]);
            const vid_t x = xs[j];
            GCOL_COUNT(++local.edges_visited);
            if (visited.test_and_set(x)) continue;  // also skips x == wv
            if (load_color(c, x) == cw && wv > x) {  // distance-2 clash
              conflicted = true;
              break;
            }
          }
        } else {
          const ClashScan scan = first_lower_clash(c, xs, wv, cw);
          GCOL_COUNT(local.edges_visited += scan.visited);
          conflicted = scan.clash;
        }
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

template <class FS>
void conflict_net_impl(const Graph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, int chunk,
                       int threads, std::vector<vid_t>& wnext,
                       KernelCounters& counters) {
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  LocalWorkQueues lazy(threads);
  lazy.begin_round();
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(g, c, ws, slots, lazy) firstprivate(chunk, n)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    typename FS::Set& f = FS::forbidden(tws);
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < n; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      // Alg. 10 lines 3-4: seed with the middle vertex's color.
      const color_t cv = load_color(c, v);
      if (cv != kNoColor) f.insert(cv);
      for (const vid_t u : g.neighbors(v)) {
        GCOL_COUNT(++local.edges_visited);
        const color_t cu = load_color(c, u);
        if (cu == kNoColor) continue;
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

}  // namespace

void d2gc_color_vertex(const Graph& g, const std::vector<vid_t>& w,
                       color_t* c, std::vector<ThreadWorkspace>& ws,
                       BalancePolicy balance, ForbiddenSetKind fset,
                       int chunk, int threads, KernelCounters& counters) {
  with_forbidden_set(fset, [&](auto fs) {
    using FS = decltype(fs);
    with_balance(balance, [&](auto b) {
      color_vertex_impl<decltype(b)::value, FS>(g, w, c, ws, chunk, threads,
                                                counters);
    });
  });
}

void d2gc_color_net(const Graph& g, color_t* c,
                    std::vector<ThreadWorkspace>& ws, BalancePolicy balance,
                    ForbiddenSetKind fset, int chunk, int threads,
                    KernelCounters& counters) {
  with_forbidden_set(fset, [&](auto fs) {
    using FS = decltype(fs);
    with_balance(balance, [&](auto b) {
      color_net_impl<decltype(b)::value, FS>(g, c, ws, chunk, threads,
                                             counters);
    });
  });
}

void d2gc_conflict_vertex(const Graph& g, const std::vector<vid_t>& w,
                          color_t* c, std::vector<ThreadWorkspace>& ws,
                          QueuePolicy queue, ForbiddenSetKind fset, int chunk,
                          int threads, std::vector<vid_t>& wnext,
                          KernelCounters& counters) {
  with_forbidden_set(fset, [&](auto fs) {
    conflict_vertex_impl<decltype(fs)>(g, w, c, ws, queue, chunk, threads,
                                       wnext, counters);
  });
}

void d2gc_conflict_net(const Graph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, ForbiddenSetKind fset,
                       int chunk, int threads, std::vector<vid_t>& wnext,
                       KernelCounters& counters) {
  with_forbidden_set(fset, [&](auto fs) {
    conflict_net_impl<decltype(fs)>(g, c, ws, chunk, threads, wnext,
                                    counters);
  });
}

}  // namespace gcol::detail
