#include "greedcolor/robust/repair.hpp"

#include <algorithm>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/marker_set.hpp"

namespace gcol {

namespace {

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

/// One repair over a net view: a net-side conflict sweep, then a
/// sequential first-fit refill of the damage only, reading live colors.
template <class V>
RepairStats repair(const V& view, std::vector<color_t>& colors,
                   const char* what) {
  static_assert(V::kNetKernels, "the conflict sweep needs a net list");
  const vid_t n = view.num_vertices();
  if (colors.size() != static_cast<std::size_t>(n))
    raise(ErrorCode::kInvalidArgument, what, "color array size mismatch");
  RepairStats stats;
  // A first-fit coloring never needs more than num_vertices colors; the
  // cap also bounds marker growth against garbage input.
  const color_t cap = std::max<color_t>(n, 1);
  stats.sanitized = sanitize(colors, cap);
  const auto color_of = [&colors](vid_t u) -> color_t& {
    return colors[static_cast<std::size_t>(u)];
  };

  // Conflict sweep: the first holder of each color in a net (its
  // center first) keeps it, later duplicates are uncolored (the static
  // smallest-id tie-break of the distributed lineage). Distinctness
  // inside every net covers every conflicting pair.
  MarkerSet seen(static_cast<std::size_t>(cap));
  for (vid_t v = 0; v < view.num_nets(); ++v) {
    seen.clear();
    if constexpr (V::kCenter) {
      if (color_of(v) != kNoColor) seen.insert(color_of(v));
    }
    for (const vid_t u : view.others(v)) {
      color_t& cu = color_of(u);
      if (cu == kNoColor) continue;
      if (seen.contains(cu)) {
        cu = kNoColor;
        ++stats.conflicted;
      } else {
        seen.insert(cu);
      }
    }
  }

  MarkerSet forbidden(static_cast<std::size_t>(cap));
  for (vid_t w = 0; w < n; ++w) {
    color_t& cw = color_of(w);
    if (cw != kNoColor) continue;
    forbidden.clear();
    for (const vid_t v : view.nets(w)) {
      if constexpr (V::kCenter) {
        if (color_of(v) != kNoColor) forbidden.insert(color_of(v));
      }
      for (const vid_t x : view.others(v))
        if (x != w && color_of(x) != kNoColor) forbidden.insert(color_of(x));
    }
    color_t col = 0;
    while (forbidden.contains(col)) ++col;
    cw = col;
    ++stats.repaired;
  }
  return stats;
}

}  // namespace

RepairStats repair_bgpc(const BipartiteGraph& g,
                        std::vector<color_t>& colors) {
  return repair(BipartiteView{g}, colors, "repair_bgpc");
}

RepairStats repair_d2gc(const Graph& g, std::vector<color_t>& colors) {
  return repair(ClosedView{g}, colors, "repair_d2gc");
}

}  // namespace gcol
