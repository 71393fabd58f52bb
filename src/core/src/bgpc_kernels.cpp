#include "bgpc_kernels.hpp"

#include <omp.h>

#include "greedcolor/util/parallel.hpp"
#include "kernels_common.hpp"

namespace gcol::detail {

namespace {

// Every kernel is instantiated over the balance policy (compile-time
// branch in the color pick) and the ForbiddenSet policy FS (stamped =
// paper-faithful probe loops with the distance-2 walk going through
// the forbid_colors / first_lower_clash seam, bitmap = word-parallel
// scans + visited-set neighbor dedup). `edges_visited` keeps its "one per adjacency entry"
// meaning in every mode — dedup skips the color load and marker work,
// not the traversal count — so the counter-pinning tests and the
// cross-mode comparisons in BENCH_kernels.json stay apples-to-apples.

template <BalancePolicy B, class FS>
void color_vertex_impl(const BipartiteGraph& g, const std::vector<vid_t>& w,
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
      for (const vid_t v : g.nets(wv)) {
        const auto vs = g.vtxs(v);
        GCOL_COUNT(local.edges_visited += vs.size());
        if constexpr (FS::kDedupNeighbors) {
          const std::size_t deg = vs.size();
          for (std::size_t j = 0; j < deg; ++j) {
            if (j + kColorPrefetchDist < deg)
              prefetch_color(c, vs[j + kColorPrefetchDist]);
            const vid_t u = vs[j];
            // Each distance-2 neighbor contributes one color no matter
            // how many nets it shares with wv.
            if (visited.test_and_set(u)) continue;
            const color_t cu = load_color(c, u);
            if (cu != kNoColor) f.insert(cu);
          }
        } else {
          forbid_colors(c, vs, wv, f);
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
void color_net_impl(const BipartiteGraph& g, color_t* c,
                    std::vector<ThreadWorkspace>& ws, int chunk, int threads,
                    KernelCounters& counters) {
  const auto nn = static_cast<std::int64_t>(g.num_nets());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(g, c, ws, slots) firstprivate(chunk, nn)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    typename FS::Set& f = FS::forbidden(tws);
    std::vector<vid_t>& wlocal = tws.local_queue;
    PolicyState st;
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < nn; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      wlocal.clear();
      // Pass 1 (Alg. 8 lines 4-8): mark forbidden colors, queue the
      // vertices that are uncolored or locally color-duplicated.
      const auto vs = g.vtxs(v);
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
      // Pass 2 (lines 9-14): reverse first-fit from |vtxs(v)|-1, or the
      // balancing variant.
      color_local_queue<B>(st, f, wlocal, v, g.net_degree(v) - 1, c, local);
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
}

template <class FS>
void color_net_v1_impl(const BipartiteGraph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, bool reverse,
                       int chunk, int threads, KernelCounters& counters) {
  const auto nn = static_cast<std::int64_t>(g.num_nets());
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(g, c, ws, slots) firstprivate(chunk, nn, reverse)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    typename FS::Set& f = FS::forbidden(tws);
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < nn; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      const color_t deg = g.net_degree(v);
      color_t col = reverse ? deg - 1 : 0;  // net-level running cursor
      const auto vs = g.vtxs(v);
      const std::size_t dsz = vs.size();
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
          local.max_color = std::max(local.max_color, cu);
          GCOL_COUNT(++local.colored);
        }
        f.insert(cu);
      }
    }
    slots.publish(tid, local);
  }
  slots.merge_into(counters);
}

template <class FS>
void conflict_vertex_impl(const BipartiteGraph& g, const std::vector<vid_t>& w,
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
      if (cw == kNoColor) continue;  // already uncolored by a peer race
      if constexpr (FS::kDedupNeighbors) {
        visited.clear();
        visited.insert(wv);
      }
      bool conflicted = false;
      for (const vid_t v : g.nets(wv)) {
        const auto vs = g.vtxs(v);
        if constexpr (FS::kDedupNeighbors) {
          const std::size_t deg = vs.size();
          for (std::size_t j = 0; j < deg; ++j) {
            if (j + kColorPrefetchDist < deg)
              prefetch_color(c, vs[j + kColorPrefetchDist]);
            const vid_t u = vs[j];
            GCOL_COUNT(++local.edges_visited);
            if (visited.test_and_set(u)) continue;
            // Tie-break (Alg. 3 line 4): the larger id loses.
            if (load_color(c, u) == cw && wv > u) {
              conflicted = true;
              break;
            }
          }
        } else {
          const ClashScan scan = first_lower_clash(c, vs, wv, cw);
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
void conflict_net_impl(const BipartiteGraph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, int chunk,
                       int threads, std::vector<vid_t>& wnext,
                       KernelCounters& counters) {
  const auto nn = static_cast<std::int64_t>(g.num_nets());
  LocalWorkQueues lazy(threads);
  lazy.begin_round();
  CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(g, c, ws, slots, lazy) firstprivate(chunk, nn)
  {
    const int tid = current_thread();
    GCOL_MC_REGION();
    ThreadWorkspace& tws = ws[static_cast<std::size_t>(tid)];
    typename FS::Set& f = FS::forbidden(tws);
    KernelCounters local;
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t vi = 0; vi < nn; ++vi) {
      const vid_t v = static_cast<vid_t>(vi);
      f.clear();
      const auto vs = g.vtxs(v);
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

}  // namespace

void bgpc_color_vertex(const BipartiteGraph& g, const std::vector<vid_t>& w,
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

void bgpc_color_net(const BipartiteGraph& g, color_t* c,
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

void bgpc_color_net_v1(const BipartiteGraph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, bool reverse,
                       ForbiddenSetKind fset, int chunk, int threads,
                       KernelCounters& counters) {
  with_forbidden_set(fset, [&](auto fs) {
    color_net_v1_impl<decltype(fs)>(g, c, ws, reverse, chunk, threads,
                                    counters);
  });
}

void bgpc_conflict_vertex(const BipartiteGraph& g, const std::vector<vid_t>& w,
                          color_t* c, std::vector<ThreadWorkspace>& ws,
                          QueuePolicy queue, ForbiddenSetKind fset, int chunk,
                          int threads, std::vector<vid_t>& wnext,
                          KernelCounters& counters) {
  with_forbidden_set(fset, [&](auto fs) {
    conflict_vertex_impl<decltype(fs)>(g, w, c, ws, queue, chunk, threads,
                                       wnext, counters);
  });
}

void bgpc_conflict_net(const BipartiteGraph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, ForbiddenSetKind fset,
                       int chunk, int threads, std::vector<vid_t>& wnext,
                       KernelCounters& counters) {
  with_forbidden_set(fset, [&](auto fs) {
    conflict_net_impl<decltype(fs)>(g, c, ws, chunk, threads, wnext,
                                    counters);
  });
}

}  // namespace gcol::detail
