#include "greedcolor/core/recolor.hpp"

#include <algorithm>
#include <numeric>

#include "greedcolor/core/result.hpp"
#include "greedcolor/graph/net_view.hpp"
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

/// One greedy first-fit pass over `order` into a fresh color array,
/// with Alg. 4's exact walk over the view's nets.
template <class V>
color_t first_fit_pass(const V& view, const std::vector<vid_t>& order,
                       std::vector<color_t>& colors) {
  std::vector<color_t> next(colors.size(), kNoColor);
  MarkerSet forbidden(static_cast<std::size_t>(view.color_bound(1)) + 2);
  std::uint64_t probes = 0;
  for (const vid_t w : order) {
    forbidden.clear();
    (void)detail::forbid_nets(view, next.data(), w, forbidden);
    next[static_cast<std::size_t>(w)] = detail::pick_up(forbidden, 0, probes);
  }
  colors = std::move(next);
  return count_colors(colors);
}

}  // namespace

color_t recolor_bgpc(const BipartiteGraph& g, std::vector<color_t>& colors) {
  return recolor_bgpc_with(g, colors, RecolorOrder::kReverseColors);
}

color_t recolor_d2gc(const Graph& g, std::vector<color_t>& colors) {
  return first_fit_pass(ClosedView{g},
                        class_order(colors, RecolorOrder::kReverseColors, 0),
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
  return first_fit_pass(BipartiteView{g}, class_order(colors, order, seed),
                        colors);
}

color_t balanced_recolor_bgpc(const BipartiteGraph& g,
                              std::vector<color_t>& colors) {
  const color_t k = count_colors(colors);
  if (k <= 1) return k;
  std::vector<vid_t> load(static_cast<std::size_t>(k), 0);
  for (const color_t c : colors)
    if (c >= 0) ++load[static_cast<std::size_t>(c)];

  MarkerSet forbidden;
  for (vid_t w = 0; w < g.num_vertices(); ++w) {
    const color_t old = colors[static_cast<std::size_t>(w)];
    forbidden.clear();
    for (const vid_t v : g.nets(w))
      for (const vid_t u : g.vtxs(v))
        if (u != w && colors[static_cast<std::size_t>(u)] != kNoColor)
          forbidden.insert(colors[static_cast<std::size_t>(u)]);
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

}  // namespace gcol
