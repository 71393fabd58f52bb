// The one speculative coloring engine. BGPC, D2GC and speculative D1GC
// are the paper's color / conflict-removal round loop (§III) run over a
// compile-time net view (greedcolor/graph/net_view.hpp), and their
// sequential baselines are one first-fit loop over the same views.
#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "greedcolor/analyze/audit.hpp"
#include "greedcolor/check/mc.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/order/ordering.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/timer.hpp"
#include "phase_kernels.hpp"

namespace gcol {

namespace {

std::vector<vid_t> natural_order(vid_t n) {
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), vid_t{0});
  return order;
}

/// A non-empty `order` must be a permutation of the vertex ids: a
/// repeated id leaves another vertex uncolored, and one out of range
/// would index the CSR out of bounds.
template <class V>
void check_order(const V& view, const std::vector<vid_t>& order,
                 const char* suffix) {
  if (!order.empty() && !is_permutation_of(order, view.num_vertices()))
    throw std::invalid_argument(std::string("color_") + V::kNames.name +
                                suffix + ": order is not a permutation");
}

/// Color every remaining uncolored vertex sequentially (first-fit):
/// the guaranteed-termination fallback behind ColoringOptions::max_rounds.
template <class V>
void sequential_cleanup(const V& view, color_t* c,
                        const std::vector<vid_t>& pending,
                        MarkerSet& forbidden) {
  std::uint64_t probes = 0;
  for (const vid_t w : pending) {
    if (detail::load_color(c, w) != kNoColor) continue;
    forbidden.clear();
    (void)detail::forbid_nets(view, c, w, forbidden);
    detail::store_color(c, w, detail::pick_up(forbidden, 0, probes));
  }
}

/// Color phase of one round: vertex-based (Alg. 4) or, where the view
/// has nets to sweep, net-based (Alg. 8/9, or BGPC's Alg. 6). A
/// vertex-based phase first zeroes (round 1) or rebuilds the large
/// nets' color summaries.
template <class V>
void color_phase(const V& view, int round, bool net_color,
                 const std::vector<vid_t>& w, color_t* c,
                 const detail::NetSummaries& summaries,
                 std::vector<ThreadWorkspace>& ws,
                 const ColoringOptions& options, int threads,
                 KernelCounters& counters) {
  const int chunk = options.chunk_size;
  if constexpr (V::kNetKernels) {
    if (net_color) {
      if constexpr (std::is_same_v<V, BipartiteView>) {
        if (options.net_v1) {
          detail::color_net_v1(view, c, ws, options.net_v1_reverse, chunk,
                               threads, counters);
          return;
        }
      }
      detail::with_balance(options.balance, [&](auto b) {
        detail::color_net<V, decltype(b)::value>(view, c, ws, chunk, threads,
                                                 counters);
      });
      return;
    }
  }
  if (summaries.enabled())
    detail::reset_summaries(view, round == 1 ? nullptr : c, summaries,
                            threads);
  detail::with_balance(options.balance, [&](auto b) {
    detail::color_vertex<V, decltype(b)::value>(view, w, c, summaries, ws,
                                                chunk, threads, counters);
  });
}

/// The speculative loop (paper §III): color W optimistically, remove
/// conflicts, repeat on the uncolored until W is empty.
template <class V>
ColoringResult speculative_color(const V& view, const ColoringOptions& options,
                                 const std::vector<vid_t>& order) {
  options.validate();
  check_order(view, order, "");
  const vid_t n = view.num_vertices();

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
  const color_t bound = view.color_bound(threads);
  const detail::NetSummaries summaries(view, bound);
  std::vector<ThreadWorkspace> workspaces(
      static_cast<std::size_t>(threads));
  for (auto& ws : workspaces)
    ws.prepare(static_cast<std::size_t>(bound) + 2,
               static_cast<std::size_t>(view.max_net_size()),
               summaries.words_per_net());

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
    if (view.nets(u).empty())
      detail::store_color(c, u, 0);
    else
      w.push_back(u);
  }

  WallTimer total;
  const FaultPlan* faults = options.fault_plan;
  std::vector<vid_t> wnext;
  int round = 0;
  while (!w.empty()) {
    ++round;
    GCOL_TRACE_BEGIN(tracer, V::kNames.round,
                     static_cast<std::uint64_t>(round));
    if (options.auditor) options.auditor->begin_round(round);
    if (options.checker) options.checker->begin_round(round, c, nsz);
    if (faults) inject_round_delay(*faults, round);  // straggler stall
    bool net_color = false;
    bool net_conflict = false;
    if constexpr (V::kNetKernels) {
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
    GCOL_TRACE_BEGIN(tracer, V::kNames.color,
                     static_cast<std::uint64_t>(w.size()));
    color_phase(view, round, net_color, w, c, summaries, workspaces, options,
                threads, stats.color_counters);
    GCOL_TRACE_END(tracer, V::kNames.color);
    stats.color_seconds = phase.seconds();

    phase.reset();
    GCOL_TRACE_BEGIN(tracer, V::kNames.conflict,
                     static_cast<std::uint64_t>(w.size()));
    if (!net_conflict)
      detail::conflict_vertex(view, w, c, summaries, options.queue,
                              options.chunk_size, threads, wnext,
                              stats.conflict_counters);
    else if constexpr (V::kNetKernels)
      detail::conflict_net(view, c, workspaces, options.chunk_size, threads,
                           wnext, stats.conflict_counters);
    GCOL_TRACE_END(tracer, V::kNames.conflict);
    stats.conflict_seconds = phase.seconds();
    stats.conflicts = wnext.size();

    result.iterations.push_back(stats);
    std::swap(w, wnext);
    wnext.clear();

    // Post-round stale writes: corrupted vertices stay colored and out
    // of the work queue, so the loop itself may never notice — the
    // verified entry points repair what leaks through.
    if (faults)
      result.faults_injected += inject_stale_colors(
          *faults, view.g, round, std::span<color_t>(c, nsz));

    // Audit after fault injection: an injected stale write is exactly
    // the "escaped conflict" shape the auditor exists to catch.
    if (options.auditor) options.auditor->end_round(view, c);
    // Model checker sweep, same placement; `w` is already the next
    // round's queue here (post-swap), which the no-loss check needs.
    if (options.checker) options.checker->end_round(view, c, w);

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
        GCOL_TRACE_BEGIN(tracer, V::kNames.cleanup,
                         static_cast<std::uint64_t>(w.size()));
        sequential_cleanup(view, c, w, workspaces.front().forbidden);
        GCOL_TRACE_END(tracer, V::kNames.cleanup);
        result.sequential_fallback = true;
        result.degraded = true;
        result.rounds_capped = capped;
        result.deadline_hit = late;
        GCOL_TRACE_END(tracer, V::kNames.round);
        break;
      }
    }
    GCOL_TRACE_END(tracer, V::kNames.round);
  }

  result.total_seconds = total.seconds();
  result.rounds = round;
  result.colors.resize(nsz);
  for (std::size_t i = 0; i < nsz; ++i)
    result.colors[i] = detail::load_color(c, static_cast<vid_t>(i));
  GCOL_CONTRACT(std::all_of(result.colors.begin(), result.colors.end(),
                            [](color_t col) { return col >= 0; }),
                "the speculative engine returned an uncolored vertex");
  result.num_colors = count_colors(result.colors);
  return result;
}

/// Deterministic sequential greedy (first-fit over `order`): the
/// Table II / Table V baselines. Never needs conflict removal. It runs
/// the same summary-backed Alg. 4 as the vertex kernels, so speedups
/// compare like with like; every vertex starts uncolored, so the zeroed
/// summaries never need a rebuild.
template <class V>
ColoringResult sequential_color(const V& view,
                                const std::vector<vid_t>& order) {
  check_order(view, order, "_sequential");
  const vid_t n = view.num_vertices();

  ColoringResult result;
  result.colors.assign(static_cast<std::size_t>(n), kNoColor);
  const color_t bound = view.color_bound(1);
  const detail::NetSummaries summaries(view, bound);
  ThreadWorkspace ws;
  ws.prepare(static_cast<std::size_t>(bound) + 2, 0,
             summaries.words_per_net());

  WallTimer total;
  if (summaries.enabled())
    detail::reset_summaries(view, nullptr, summaries, 1);
  IterationStats stats;
  stats.round = 1;
  stats.queue_size = static_cast<std::size_t>(n);
  detail::PolicyState st;
  KernelCounters local;
  const std::vector<vid_t>& base = order.empty() ? natural_order(n) : order;
  for (const vid_t w : base) {
    (void)detail::color_one_vertex(
        view, result.colors.data(), w, summaries, ws, st, local,
        detail::BalanceTag<BalancePolicy::kNone>{});
    GCOL_COUNT(++local.colored);
  }
  GCOL_COUNT(stats.color_counters.edges_visited = local.edges_visited);
  GCOL_COUNT(stats.color_counters.color_probes = local.color_probes);
  GCOL_COUNT(stats.color_counters.colored = local.colored);
  stats.color_seconds = total.seconds();
  result.total_seconds = stats.color_seconds;
  result.rounds = 1;
  result.iterations.push_back(stats);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace

color_t bgpc_color_bound(const BipartiteGraph& g) {
  return BipartiteView{g}.color_bound(max_threads());
}

ColoringResult color_bgpc(const BipartiteGraph& g,
                          const ColoringOptions& options,
                          const std::vector<vid_t>& order) {
  return speculative_color(BipartiteView{g}, options, order);
}

ColoringResult color_bgpc_sequential(const BipartiteGraph& g,
                                     const std::vector<vid_t>& order) {
  return sequential_color(BipartiteView{g}, order);
}

color_t d2gc_color_bound(const Graph& g) {
  return ClosedView{g}.color_bound(max_threads());
}

ColoringResult color_d2gc(const Graph& g, const ColoringOptions& options,
                          const std::vector<vid_t>& order) {
  if (options.net_v1)
    throw std::invalid_argument("color_d2gc: net_v1 is BGPC-only");
  return speculative_color(ClosedView{g}, options, order);
}

ColoringResult color_d2gc_sequential(const Graph& g,
                                     const std::vector<vid_t>& order) {
  return sequential_color(ClosedView{g}, order);
}

color_t d1gc_color_bound(const Graph& g) {
  return Distance1View{g}.color_bound(max_threads());
}

ColoringResult color_d1gc(const Graph& g, const ColoringOptions& options,
                          const std::vector<vid_t>& order) {
  if (options.net_color_rounds != 0 || options.net_conflict_rounds != 0)
    throw std::invalid_argument(
        "color_d1gc: net-based rounds are undefined for distance-1");
  return speculative_color(Distance1View{g}, options, order);
}

ColoringResult color_d1gc_sequential(const Graph& g,
                                     const std::vector<vid_t>& order) {
  return sequential_color(Distance1View{g}, order);
}

}  // namespace gcol
