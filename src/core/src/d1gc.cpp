// Jones-Plassmann D1GC and the D1 validity check. Speculative D1GC and
// its sequential baseline run on the one engine (engine.cpp) over
// Distance1View.
#include "greedcolor/core/d1gc.hpp"

#include <numeric>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/prng.hpp"
#include "greedcolor/util/timer.hpp"
#include "greedcolor/util/work_queue.hpp"
#include "phase_kernels.hpp"

namespace gcol {

namespace {

std::vector<vid_t> natural_order(vid_t n) {
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), vid_t{0});
  return order;
}

}  // namespace

ColoringResult color_d1gc_jones_plassmann(const Graph& g, std::uint64_t seed,
                                          int num_threads) {
  const vid_t n = g.num_vertices();
  const int threads = detail::resolve_threads(num_threads);

  ColoringResult result;
  result.colors.assign(static_cast<std::size_t>(n), kNoColor);
  color_t* c = result.colors.data();

  // Random priorities; ties broken by vertex id.
  std::vector<std::uint64_t> priority(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v)
    priority[static_cast<std::size_t>(v)] =
        mix64(seed ^ static_cast<std::uint64_t>(v));
  auto wins = [&](vid_t a, vid_t b) {
    const auto pa = priority[static_cast<std::size_t>(a)];
    const auto pb = priority[static_cast<std::size_t>(b)];
    return pa != pb ? pa > pb : a > b;
  };

  std::vector<ThreadWorkspace> workspaces(
      static_cast<std::size_t>(threads));
  for (auto& ws : workspaces)
    ws.prepare(static_cast<std::size_t>(d1gc_color_bound(g)) + 1, 0);

  std::vector<vid_t> w = natural_order(n);
  std::vector<vid_t> wnext;
  LocalWorkQueues lazy(threads);
  // Round-start snapshot of "still uncolored": the local-max test and
  // the forbidden sets only consult prior-round state, which makes the
  // whole run a deterministic function of (graph, seed).
  std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 1);

  WallTimer total;
  int round = 0;
  while (!w.empty()) {
    ++round;
    IterationStats stats;
    stats.round = round;
    stats.queue_size = w.size();
    lazy.begin_round();
    const auto sz = static_cast<std::int64_t>(w.size());

    WallTimer phase;
    detail::CounterSlots slots(threads);
#pragma omp parallel num_threads(threads) default(none) \
    shared(g, w, c, workspaces, active, lazy, slots, wins) firstprivate(sz)
    {
      const int tid = current_thread();
      ThreadWorkspace& tws = workspaces[static_cast<std::size_t>(tid)];
      MarkerSet& f = tws.forbidden;
      KernelCounters local;
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t i = 0; i < sz; ++i) {
        const vid_t v = w[static_cast<std::size_t>(i)];
        // v colors this round iff it beats every still-active neighbor
        // (the Jones-Plassmann independent set). Two adjacent winners
        // are impossible, so the concurrent stores below never clash.
        bool local_max = true;
        for (const vid_t u : g.neighbors(v)) {
          GCOL_COUNT(++local.edges_visited);
          if (active[static_cast<std::size_t>(u)] && wins(u, v)) {
            local_max = false;
            break;
          }
        }
        if (!local_max) {
          lazy.push(tid, v);
          continue;
        }
        // No active neighbor colors this round (it does not beat v), so
        // the walk sees the colors of earlier rounds only.
        f.clear();
        (void)detail::forbid_nets(Distance1View{g}, c, v, f);
        detail::store_color(c, v, detail::pick_up(f, 0, local.color_probes));
        GCOL_COUNT(++local.colored);
      }
      slots.publish(tid, local);
    }
    slots.merge_into(stats.color_counters);
    stats.color_seconds = phase.seconds();
    lazy.merge_into(wnext);
    stats.conflicts = wnext.size();
    result.iterations.push_back(stats);
    for (const vid_t v : w) active[static_cast<std::size_t>(v)] = 0;
    for (const vid_t v : wnext) active[static_cast<std::size_t>(v)] = 1;
    std::swap(w, wnext);
    wnext.clear();
  }
  result.total_seconds = total.seconds();
  result.rounds = round;
  result.num_colors = count_colors(result.colors);
  return result;
}

std::optional<ColoringViolation> check_d1gc(
    const Graph& g, const std::vector<color_t>& colors) {
  if (colors.size() != static_cast<std::size_t>(g.num_vertices()))
    return ColoringViolation{kInvalidVertex, kInvalidVertex, kInvalidVertex,
                             "color array size mismatch"};
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (colors[static_cast<std::size_t>(v)] < 0)
      return ColoringViolation{v, kInvalidVertex, kInvalidVertex,
                               "uncolored vertex"};
    for (const vid_t u : g.neighbors(v)) {
      if (colors[static_cast<std::size_t>(u)] ==
          colors[static_cast<std::size_t>(v)])
        return ColoringViolation{v, u, kInvalidVertex,
                                 "adjacent vertices share a color"};
    }
  }
  return std::nullopt;
}

bool is_valid_d1gc(const Graph& g, const std::vector<color_t>& colors) {
  return !check_d1gc(g, colors).has_value();
}

}  // namespace gcol
