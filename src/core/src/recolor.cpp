// Iterated-greedy recoloring and verify-and-repair: sequential passes
// over the engine's first-fit fill (phase_kernels.hpp).
#include "greedcolor/core/recolor.hpp"

#include <algorithm>
#include <numeric>

#include "greedcolor/analyze/escaped.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/prng.hpp"
#include "phase_kernels.hpp"

namespace gcol {

namespace {

/// Vertex order of one pass: vertices stably sorted by their class's
/// rank under `order`, so each color class stays contiguous. When every
/// class is re-colored as a block, greedy first-fit can reuse only
/// colors of previously processed classes, so the count cannot grow
/// (Culberson's argument). Uncolored vertices come last.
std::vector<vid_t> class_order(const std::vector<color_t>& colors,
                               RecolorOrder order, std::uint64_t seed) {
  const color_t k = count_colors(colors);
  std::vector<std::uint64_t> rank(
      static_cast<std::size_t>(std::max<color_t>(k, 1)));
  switch (order) {
    case RecolorOrder::kReverseColors:
      for (color_t c = 0; c < k; ++c)
        rank[static_cast<std::size_t>(c)] =
            static_cast<std::uint64_t>(k - c);
      break;
    case RecolorOrder::kRandomClasses:
      for (color_t c = 0; c < k; ++c)
        rank[static_cast<std::size_t>(c)] =
            mix64(seed ^ static_cast<std::uint64_t>(c));
      break;
    case RecolorOrder::kDecreasingSize: {
      std::vector<std::uint64_t> size(static_cast<std::size_t>(k), 0);
      for (const color_t c : colors)
        if (c >= 0) ++size[static_cast<std::size_t>(c)];
      for (color_t c = 0; c < k; ++c)
        rank[static_cast<std::size_t>(c)] = ~size[static_cast<std::size_t>(c)];
      break;
    }
  }
  const auto rank_of = [&](vid_t v) {
    const color_t c = colors[static_cast<std::size_t>(v)];
    return c == kNoColor ? ~std::uint64_t{0}
                         : rank[static_cast<std::size_t>(c)];
  };
  std::vector<vid_t> vertex_order(colors.size());
  std::iota(vertex_order.begin(), vertex_order.end(), vid_t{0});
  std::stable_sort(vertex_order.begin(), vertex_order.end(),
                   [&](vid_t a, vid_t b) { return rank_of(a) < rank_of(b); });
  return vertex_order;
}

/// Take a sequential pass's colors into `colors`; returns their count.
color_t adopt(ColoringResult pass, std::vector<color_t>& colors) {
  colors = std::move(pass.colors);
  return pass.num_colors;
}

/// Reset entries no valid greedy coloring could contain. Any color id
/// >= cap would force the forbidden-marker arrays (and a malicious
/// input could force multi-GB ones), so such entries are treated as
/// damage and recolored rather than trusted.
vid_t sanitize(std::vector<color_t>& colors, color_t cap) {
  vid_t reset = 0;
  for (auto& c : colors) {
    if (c == kNoColor) continue;
    if (c < 0 || c >= cap) {
      c = kNoColor;
      ++reset;
    }
  }
  return reset;
}

/// One repair over a net view: sanitize, uncolor every escaped conflict
/// but its color's first holder in the net (center first), then the
/// sequential first-fit fill in id order over the live colors.
template <class V>
RepairStats repair(const V& view, std::vector<color_t>& colors,
                   const char* what) {
  const vid_t n = view.num_vertices();
  if (colors.size() != static_cast<std::size_t>(n))
    raise(ErrorCode::kInvalidArgument, what, "color array size mismatch");
  RepairStats stats;
  // A first-fit coloring never needs more than num_vertices colors; the
  // cap also bounds marker growth against garbage input.
  stats.sanitized = sanitize(colors, std::max<color_t>(n, 1));
  audit::for_each_escaped_conflict(
      view, colors.data(), [&](vid_t a, vid_t, vid_t, color_t) {
        colors[static_cast<std::size_t>(a)] = kNoColor;
        ++stats.conflicted;
      });
  stats.repaired = static_cast<vid_t>(
      std::count(colors.begin(), colors.end(), kNoColor));

  const color_t bound = view.color_bound(1);
  const detail::NetSummaries summaries(view, bound);
  ThreadWorkspace ws;
  ws.prepare(static_cast<std::size_t>(bound) + 2, 0,
             summaries.max_large_per_vertex());
  detail::reset_summaries(view, colors.data(), summaries, 1);
  std::vector<vid_t> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), vid_t{0});
  KernelCounters unused;
  detail::first_fit_fill(view, colors.data(), ids, summaries, ws, unused);
  return stats;
}

}  // namespace

color_t recolor_bgpc(const BipartiteGraph& g, std::vector<color_t>& colors) {
  return recolor_bgpc_with(g, colors, RecolorOrder::kReverseColors);
}

color_t recolor_d2gc(const Graph& g, std::vector<color_t>& colors) {
  return adopt(color_d2gc_sequential(
                   g, class_order(colors, RecolorOrder::kReverseColors, 0)),
               colors);
}

color_t recolor_bgpc_to_fixpoint(const BipartiteGraph& g,
                                 std::vector<color_t>& colors,
                                 int max_passes) {
  color_t best = count_colors(colors);
  for (int pass = 0; pass < max_passes; ++pass) {
    const color_t now = recolor_bgpc(g, colors);
    if (now >= best) return now;
    best = now;
  }
  return best;
}

color_t recolor_bgpc_with(const BipartiteGraph& g,
                          std::vector<color_t>& colors, RecolorOrder order,
                          std::uint64_t seed) {
  return adopt(color_bgpc_sequential(g, class_order(colors, order, seed)),
               colors);
}

color_t balanced_recolor_bgpc(const BipartiteGraph& g,
                              std::vector<color_t>& colors) {
  const color_t k = count_colors(colors);
  if (k <= 1) return k;
  std::vector<vid_t> load(static_cast<std::size_t>(k), 0);
  for (const color_t c : colors)
    if (c >= 0) ++load[static_cast<std::size_t>(c)];

  const BipartiteView view{g};
  MarkerSet forbidden(static_cast<std::size_t>(k));
  for (vid_t w = 0; w < g.num_vertices(); ++w) {
    const color_t old = colors[static_cast<std::size_t>(w)];
    forbidden.clear();
    (void)detail::forbid_nets(view, colors.data(), w, forbidden);
    // Least-loaded allowed color; the current color is always allowed,
    // so the choice set is never empty and k never grows.
    color_t best = old;
    for (color_t c = 0; c < k; ++c) {
      if (forbidden.contains(c)) continue;
      if (load[static_cast<std::size_t>(c)] <
          load[static_cast<std::size_t>(best)])
        best = c;
    }
    if (best != old) {
      --load[static_cast<std::size_t>(old)];
      ++load[static_cast<std::size_t>(best)];
      colors[static_cast<std::size_t>(w)] = best;
    }
  }
  return count_colors(colors);
}

RepairStats repair_bgpc(const BipartiteGraph& g,
                        std::vector<color_t>& colors) {
  return repair(BipartiteView{g}, colors, "repair_bgpc");
}

RepairStats repair_d2gc(const Graph& g, std::vector<color_t>& colors) {
  return repair(ClosedView{g}, colors, "repair_d2gc");
}

}  // namespace gcol
