#include "greedcolor/core/bgpc.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "bgpc_kernels.hpp"
#include "greedcolor/analyze/audit.hpp"
#include "greedcolor/check/mc.hpp"
#include "greedcolor/core/adaptive.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/order/locality.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/timer.hpp"
#include "kernels_common.hpp"

namespace gcol {

namespace {

std::vector<vid_t> natural_order(vid_t n) {
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), vid_t{0});
  return order;
}

/// Color every remaining uncolored vertex sequentially (first-fit):
/// the guaranteed-termination fallback behind ColoringOptions::max_rounds.
void sequential_cleanup(const BipartiteGraph& g, color_t* c,
                        const std::vector<vid_t>& pending,
                        MarkerSet& forbidden) {
  std::uint64_t probes = 0;
  for (const vid_t w : pending) {
    if (detail::load_color(c, w) != kNoColor) continue;
    forbidden.clear();
    for (const vid_t v : g.nets(w))
      detail::forbid_colors(c, g.vtxs(v), w, forbidden);
    detail::store_color(c, w, detail::pick_up(forbidden, 0, probes));
  }
}

}  // namespace

color_t bgpc_color_bound(const BipartiteGraph& g) {
  eid_t best = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    eid_t d2 = 0;
    for (const vid_t v : g.nets(u)) d2 += g.net_degree(v) - 1;
    best = std::max(best, d2);
  }
  return static_cast<color_t>(best + 1);
}

ColoringResult color_bgpc(const BipartiteGraph& g,
                          const ColoringOptions& options,
                          const std::vector<vid_t>& order) {
  options.validate();
  const vid_t n = g.num_vertices();
  if (!order.empty() && order.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("color_bgpc: order size mismatch");

  // Locality pre-pass: color a rewritten copy of the graph, then map
  // the colors back through the permutation. The processing order is
  // translated too, so position i still handles the same logical
  // vertex as without the pass.
  if (options.locality != LocalityMode::kNone) {
    const BgpcLocalityPlan plan = make_locality_plan(g, options.locality);
    ColoringOptions inner = options;
    inner.locality = LocalityMode::kNone;
    ColoringResult r = color_bgpc(
        plan.graph, inner, apply_vertex_perm(plan.vertex_perm, order, n));
    r.colors = restore_colors(plan.vertex_perm, std::move(r.colors));
    return r;
  }

  const int threads = detail::resolve_threads(options.num_threads);
  // gcol-trace: spans/events recorded only through the GCOL_TRACE_*
  // macros, which compile out with the build option (same seam contract
  // as the auditor below).
  obs::Tracer* const tracer = options.tracer;
  if (tracer != nullptr) tracer->attach(threads);
  // Speculative-race auditor: installed for the whole engine run so the
  // GCOL_AUDIT accessor hooks can reach it; one null check per round on
  // the happy path (same contract as fault_plan).
  audit::AuditScope audit_scope(options.auditor, threads);
  const auto marker_cap =
      static_cast<std::size_t>(bgpc_color_bound(g)) + 2;
  // Any non-stamped mode may run a dedup (visited-set) kernel; adaptive
  // can pick one mid-run, so it pre-sizes the dedup universe too.
  const bool dedup = options.forbidden_set != ForbiddenSetKind::kStamped;
  std::vector<ThreadWorkspace> workspaces(
      static_cast<std::size_t>(threads));
  for (auto& ws : workspaces)
    ws.prepare(marker_cap, static_cast<std::size_t>(g.max_net_degree()),
               dedup ? static_cast<std::size_t>(n) : 0);

  // Resolves kAdaptive to a concrete representation per phase and
  // round; a fixed requested kind passes through unchanged. Seeded with
  // the max net degree: the net kernels' reverse-first-fit never starts
  // above it, so it is the round-1 color-bound estimate.
  AdaptiveFsEngine fs_engine(options.forbidden_set,
                             static_cast<color_t>(g.max_net_degree()));

  ColoringResult result;
  // Raw buffer + static parallel fill: the same threads that will color
  // a region first-touch its pages (std::vector's fill constructor
  // would touch everything from one thread). Copied into the result
  // vector once at the end.
  const auto nsz = static_cast<std::size_t>(n);
  const std::unique_ptr<color_t[]> color_buf(new color_t[nsz]);
  color_t* c = color_buf.get();
  // store_color (relaxed atomic_ref) here and below: libgomp's barriers
  // are invisible to tsan, so any plain driver access to c[] would be
  // reported as racing the kernels' atomics. Free on x86 either way.
#pragma omp parallel for schedule(static) num_threads(threads) \
    default(none) shared(c) firstprivate(n)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i)
    detail::store_color(c, static_cast<vid_t>(i), kNoColor);

  // Initial work queue: the requested permutation, minus isolated
  // vertices (no nets => no conflicts; net-based kernels never see
  // them, so they are colored up front).
  std::vector<vid_t> w;
  w.reserve(nsz);
  const std::vector<vid_t>& base = order.empty() ? natural_order(n) : order;
  for (const vid_t u : base) {
    if (g.vertex_degree(u) == 0)
      detail::store_color(c, u, 0);
    else
      w.push_back(u);
  }

  WallTimer total;
  const FaultPlan* faults = options.fault_plan;
  std::vector<vid_t> wnext;
  int round = 0;
  int net_color_uses = 0;
  bool fs_traced = false;
  ForbiddenSetKind last_color_fs = ForbiddenSetKind::kStamped;
  ForbiddenSetKind last_conflict_fs = ForbiddenSetKind::kStamped;
  while (!w.empty()) {
    ++round;
    GCOL_TRACE_BEGIN(tracer, "bgpc.round", static_cast<std::uint64_t>(round));
    if (options.auditor) options.auditor->begin_round(round);
    if (options.checker) options.checker->begin_round(round, c, nsz);
    if (faults) inject_round_delay(*faults, round);  // straggler stall
    bool net_color, net_conflict;
    if (options.adaptive_threshold > 0.0) {
      // Hybrid rule. Net *conflict removal* is O(|E|) and beats the
      // vertex-based scan while W is a sizable fraction of V. Net
      // *coloring* is only worth it when W is a majority — and looping
      // it regenerates conflicts (the paper's observation 5), so it is
      // capped at two uses.
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
    const ForbiddenSetKind color_fs =
        fs_engine.color_kind(net_color, w.size(), nsz);
    const ForbiddenSetKind conflict_fs = fs_engine.conflict_kind(net_conflict);
    stats.color_forbidden_set = color_fs;
    stats.conflict_forbidden_set = conflict_fs;
    // Forbidden-set switches (incl. the first resolution): arg is the
    // ForbiddenSetKind the adaptive engine picked for the phase.
    if (!fs_traced || color_fs != last_color_fs)
      GCOL_TRACE_EVENT(tracer, "bgpc.fs.color",
                       static_cast<std::uint64_t>(color_fs));
    if (!fs_traced || conflict_fs != last_conflict_fs)
      GCOL_TRACE_EVENT(tracer, "bgpc.fs.conflict",
                       static_cast<std::uint64_t>(conflict_fs));
    fs_traced = true;
    last_color_fs = color_fs;
    last_conflict_fs = conflict_fs;

    WallTimer phase;
    GCOL_TRACE_BEGIN(tracer, "bgpc.color",
                     static_cast<std::uint64_t>(w.size()));
    if (net_color) {
      if (options.net_v1)
        detail::bgpc_color_net_v1(g, c, workspaces, options.net_v1_reverse,
                                  color_fs, options.chunk_size,
                                  threads, stats.color_counters);
      else
        detail::bgpc_color_net(g, c, workspaces, options.balance,
                               color_fs, options.chunk_size,
                               threads, stats.color_counters);
    } else {
      detail::bgpc_color_vertex(g, w, c, workspaces, options.balance,
                                color_fs, options.chunk_size,
                                threads, stats.color_counters);
    }
    GCOL_TRACE_END(tracer, "bgpc.color");
    stats.color_seconds = phase.seconds();
    fs_engine.observe_round(stats.color_counters.max_color);

    phase.reset();
    GCOL_TRACE_BEGIN(tracer, "bgpc.conflict",
                     static_cast<std::uint64_t>(w.size()));
    if (net_conflict) {
      detail::bgpc_conflict_net(g, c, workspaces, conflict_fs,
                                options.chunk_size, threads, wnext,
                                stats.conflict_counters);
    } else {
      detail::bgpc_conflict_vertex(g, w, c, workspaces, options.queue,
                                   conflict_fs, options.chunk_size,
                                   threads, wnext, stats.conflict_counters);
    }
    GCOL_TRACE_END(tracer, "bgpc.conflict");
    stats.conflict_seconds = phase.seconds();
    stats.conflicts = wnext.size();

    if (options.collect_iteration_stats)
      result.iterations.push_back(stats);
    std::swap(w, wnext);
    wnext.clear();

    // Post-round stale writes: corrupted vertices stay colored and out
    // of the work queue, so the loop itself may never notice — the
    // verified entry points repair what leaks through.
    if (faults)
      result.faults_injected += inject_stale_colors(
          *faults, g, round, std::span<color_t>(c, nsz));

    // Audit after fault injection: an injected stale write is exactly
    // the "escaped conflict" shape the auditor exists to catch.
    if (options.auditor) options.auditor->end_round(g, c);
    // Model checker sweep, same placement; `w` is already the next
    // round's queue here (post-swap), which the no-loss check needs.
    if (options.checker) options.checker->end_round(g, c, w);

    // Convergence watchdog: round budget + wall-clock deadline. Either
    // valve finishes the pending set with the guaranteed-termination
    // sequential cleanup instead of speculating further.
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
        GCOL_TRACE_BEGIN(tracer, "bgpc.sequential_cleanup",
                         static_cast<std::uint64_t>(w.size()));
        sequential_cleanup(g, c, w, workspaces.front().forbidden);
        GCOL_TRACE_END(tracer, "bgpc.sequential_cleanup");
        result.sequential_fallback = true;
        result.degraded = true;
        result.rounds_capped = capped;
        result.deadline_hit = late;
        GCOL_TRACE_END(tracer, "bgpc.round");
        break;
      }
    }
    GCOL_TRACE_END(tracer, "bgpc.round");
  }

  result.total_seconds = total.seconds();
  result.rounds = round;
  result.colors.resize(nsz);
  for (std::size_t i = 0; i < nsz; ++i)
    result.colors[i] = detail::load_color(c, static_cast<vid_t>(i));
  GCOL_CONTRACT(std::all_of(result.colors.begin(), result.colors.end(),
                            [](color_t col) { return col >= 0; }),
                "color_bgpc returned an uncolored vertex");
  result.num_colors = count_colors(result.colors);
  return result;
}

ColoringResult color_bgpc_sequential(const BipartiteGraph& g,
                                     const std::vector<vid_t>& order) {
  const vid_t n = g.num_vertices();
  if (!order.empty() && order.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("color_bgpc_sequential: order size mismatch");

  ColoringResult result;
  result.colors.assign(static_cast<std::size_t>(n), kNoColor);
  // Sequential path draws its scratch from a ThreadWorkspace like the
  // parallel kernels (lint R007: no direct marker-set construction in
  // the BGPC/D2GC layer).
  ThreadWorkspace scratch;
  scratch.prepare(static_cast<std::size_t>(bgpc_color_bound(g)) + 2, 0);
  MarkerSet& forbidden = scratch.forbidden;

  WallTimer total;
  IterationStats stats;
  stats.round = 1;
  stats.queue_size = static_cast<std::size_t>(n);
  std::uint64_t probes = 0;
  const std::vector<vid_t>& base = order.empty() ? natural_order(n) : order;
  for (const vid_t w : base) {
    forbidden.clear();
    for (const vid_t v : g.nets(w)) {
      const auto vs = g.vtxs(v);
      GCOL_COUNT(stats.color_counters.edges_visited += vs.size());
      detail::forbid_colors(result.colors.data(), vs, w, forbidden);
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
