#include "greedcolor/core/d2gc.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "d2gc_kernels.hpp"
#include "greedcolor/analyze/audit.hpp"
#include "greedcolor/check/mc.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/order/locality.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/util/timer.hpp"
#include "kernels_common.hpp"

namespace gcol {

namespace {

std::vector<vid_t> natural_order(vid_t n) {
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), vid_t{0});
  return order;
}

void sequential_cleanup(const Graph& g, color_t* c,
                        const std::vector<vid_t>& pending,
                        MarkerSet& forbidden) {
  std::uint64_t probes = 0;
  for (const vid_t w : pending) {
    if (detail::load_color(c, w) != kNoColor) continue;
    forbidden.clear();
    for (const vid_t u : g.neighbors(w)) {
      const color_t cu = detail::load_color(c, u);
      if (cu != kNoColor) forbidden.insert(cu);
      detail::forbid_colors(c, g.neighbors(u), w, forbidden);
    }
    detail::store_color(c, w, detail::pick_up(forbidden, 0, probes));
  }
}

// In the BGPC presets `net_conflict_rounds >= net_color_rounds` is
// enforced because a net-colored round has no explicit queue. Same
// constraint applies here; ColoringOptions::validate covers it.

}  // namespace

color_t d2gc_color_bound(const Graph& g) {
  eid_t best = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    eid_t d2 = g.degree(v);
    for (const vid_t u : g.neighbors(v)) d2 += g.degree(u) - 1;
    best = std::max(best, d2);
  }
  return static_cast<color_t>(best + 2);
}

ColoringResult color_d2gc(const Graph& g, const ColoringOptions& options,
                          const std::vector<vid_t>& order) {
  options.validate();
  if (options.net_v1)
    throw std::invalid_argument("color_d2gc: net_v1 is BGPC-only");
  const vid_t n = g.num_vertices();
  if (!order.empty() && order.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("color_d2gc: order size mismatch");

  // Locality pre-pass (see bgpc.cpp): color a rewritten copy, restore
  // the colors through the permutation.
  if (options.locality != LocalityMode::kNone) {
    const GraphLocalityPlan plan = make_locality_plan(g, options.locality);
    ColoringOptions inner = options;
    inner.locality = LocalityMode::kNone;
    ColoringResult r = color_d2gc(
        plan.graph, inner, apply_vertex_perm(plan.vertex_perm, order, n));
    r.colors = restore_colors(plan.vertex_perm, std::move(r.colors));
    return r;
  }

  const int threads = detail::resolve_threads(options.num_threads);
  // gcol-trace seam; see bgpc.cpp.
  obs::Tracer* const tracer = options.tracer;
  if (tracer != nullptr) tracer->attach(threads);
  // Speculative-race auditor; see bgpc.cpp.
  audit::AuditScope audit_scope(options.auditor, threads);
  const auto marker_cap = static_cast<std::size_t>(d2gc_color_bound(g)) + 2;
  std::vector<ThreadWorkspace> workspaces(
      static_cast<std::size_t>(threads));
  for (auto& ws : workspaces)
    ws.prepare(marker_cap, static_cast<std::size_t>(g.max_degree()) + 1);

  ColoringResult result;
  // First-touch init; see bgpc.cpp.
  const auto nsz = static_cast<std::size_t>(n);
  const std::unique_ptr<color_t[]> color_buf(new color_t[nsz]);
  color_t* c = color_buf.get();
  // store_color throughout the driver: see bgpc.cpp.
#pragma omp parallel for schedule(static) num_threads(threads) \
    default(none) shared(c) firstprivate(n)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i)
    detail::store_color(c, static_cast<vid_t>(i), kNoColor);

  std::vector<vid_t> w;
  w.reserve(nsz);
  const std::vector<vid_t>& base = order.empty() ? natural_order(n) : order;
  for (const vid_t u : base) {
    if (g.degree(u) == 0)
      detail::store_color(c, u, 0);  // isolated
    else
      w.push_back(u);
  }

  WallTimer total;
  const FaultPlan* faults = options.fault_plan;
  std::vector<vid_t> wnext;
  int round = 0;
  int net_color_uses = 0;
  while (!w.empty()) {
    ++round;
    GCOL_TRACE_BEGIN(tracer, "d2gc.round", static_cast<std::uint64_t>(round));
    if (options.auditor) options.auditor->begin_round(round);
    if (options.checker) options.checker->begin_round(round, c, nsz);
    if (faults) inject_round_delay(*faults, round);  // straggler stall
    bool net_color, net_conflict;
    if (options.adaptive_threshold > 0.0) {
      // See bgpc.cpp: net coloring only for majority-sized W (capped at
      // two uses, the paper's observation 5); net conflict removal down
      // to the threshold fraction.
      const double frac =
          static_cast<double>(w.size()) / static_cast<double>(n);
      net_color = frac >= std::max(options.adaptive_threshold, 0.5) &&
                  net_color_uses < 2;
      if (net_color) ++net_color_uses;
      net_conflict = net_color || frac >= options.adaptive_threshold;
    } else {
      net_color = round <= options.net_color_rounds;
      net_conflict = options.net_conflict_rounds == -1 ||
                     round <= options.net_conflict_rounds;
    }

    IterationStats stats;
    stats.round = round;
    stats.queue_size = w.size();
    stats.net_based_coloring = net_color;
    stats.net_based_conflict = net_conflict;

    WallTimer phase;
    GCOL_TRACE_BEGIN(tracer, "d2gc.color",
                     static_cast<std::uint64_t>(w.size()));
    if (net_color)
      detail::d2gc_color_net(g, c, workspaces, options.balance,
                             options.chunk_size, threads,
                             stats.color_counters);
    else
      detail::d2gc_color_vertex(g, w, c, workspaces, options.balance,
                                options.chunk_size, threads,
                                stats.color_counters);
    GCOL_TRACE_END(tracer, "d2gc.color");
    stats.color_seconds = phase.seconds();

    phase.reset();
    GCOL_TRACE_BEGIN(tracer, "d2gc.conflict",
                     static_cast<std::uint64_t>(w.size()));
    if (net_conflict)
      detail::d2gc_conflict_net(g, c, workspaces, options.chunk_size,
                                threads, wnext, stats.conflict_counters);
    else
      detail::d2gc_conflict_vertex(g, w, c, options.queue, options.chunk_size,
                                   threads, wnext, stats.conflict_counters);
    GCOL_TRACE_END(tracer, "d2gc.conflict");
    stats.conflict_seconds = phase.seconds();
    stats.conflicts = wnext.size();

    if (options.collect_iteration_stats)
      result.iterations.push_back(stats);
    std::swap(w, wnext);
    wnext.clear();

    // See bgpc.cpp: stale writes escape the queue-based detection by
    // design; the verified entry points repair them afterwards.
    if (faults)
      result.faults_injected += inject_stale_colors(
          *faults, g, round, std::span<color_t>(c, nsz));

    // Audit after fault injection; see bgpc.cpp.
    if (options.auditor) options.auditor->end_round(g, c);
    // Model checker sweep; `w` is the next round's queue (post-swap).
    if (options.checker) options.checker->end_round(g, c, w);

    if (!w.empty()) {
      const bool capped = round >= options.max_rounds;
      const bool late = options.deadline_seconds > 0.0 &&
                        total.seconds() >= options.deadline_seconds;
      if (capped || late) {
        if (capped)
          GCOL_TRACE_EVENT(tracer, "watchdog.rounds_capped",
                           static_cast<std::uint64_t>(round));
        if (late)
          GCOL_TRACE_EVENT(tracer, "watchdog.deadline",
                           static_cast<std::uint64_t>(round));
        GCOL_TRACE_BEGIN(tracer, "d2gc.sequential_cleanup",
                         static_cast<std::uint64_t>(w.size()));
        sequential_cleanup(g, c, w, workspaces.front().forbidden);
        GCOL_TRACE_END(tracer, "d2gc.sequential_cleanup");
        result.sequential_fallback = true;
        result.degraded = true;
        result.rounds_capped = capped;
        result.deadline_hit = late;
        GCOL_TRACE_END(tracer, "d2gc.round");
        break;
      }
    }
    GCOL_TRACE_END(tracer, "d2gc.round");
  }

  result.total_seconds = total.seconds();
  result.rounds = round;
  result.colors.resize(nsz);
  for (std::size_t i = 0; i < nsz; ++i)
    result.colors[i] = detail::load_color(c, static_cast<vid_t>(i));
  GCOL_CONTRACT(std::all_of(result.colors.begin(), result.colors.end(),
                            [](color_t col) { return col >= 0; }),
                "color_d2gc returned an uncolored vertex");
  result.num_colors = count_colors(result.colors);
  return result;
}

ColoringResult color_d2gc_sequential(const Graph& g,
                                     const std::vector<vid_t>& order) {
  const vid_t n = g.num_vertices();
  if (!order.empty() && order.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("color_d2gc_sequential: order size mismatch");

  ColoringResult result;
  result.colors.assign(static_cast<std::size_t>(n), kNoColor);
  MarkerSet forbidden(static_cast<std::size_t>(d2gc_color_bound(g)) + 2);

  WallTimer total;
  IterationStats stats;
  stats.round = 1;
  stats.queue_size = static_cast<std::size_t>(n);
  std::uint64_t probes = 0;
  const std::vector<vid_t>& base = order.empty() ? natural_order(n) : order;
  for (const vid_t w : base) {
    forbidden.clear();
    for (const vid_t u : g.neighbors(w)) {
      GCOL_COUNT(++stats.color_counters.edges_visited);
      const color_t cu = result.colors[static_cast<std::size_t>(u)];
      if (cu != kNoColor) forbidden.insert(cu);
      const auto xs = g.neighbors(u);
      GCOL_COUNT(stats.color_counters.edges_visited += xs.size());
      detail::forbid_colors(result.colors.data(), xs, w, forbidden);
    }
    result.colors[static_cast<std::size_t>(w)] =
        detail::pick_up(forbidden, 0, probes);
    GCOL_COUNT(++stats.color_counters.colored);
  }
  GCOL_COUNT(stats.color_counters.color_probes = probes);
  stats.color_seconds = total.seconds();
  result.total_seconds = stats.color_seconds;
  result.rounds = 1;
  result.iterations.push_back(stats);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol
