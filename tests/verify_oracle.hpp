// The sequential check_bgpc / check_d2gc the parallel check replaced,
// kept as the differential oracle: one net (or closed neighborhood)
// after another in id order, one marker pass each, reporting the first
// violation met. The parallel check must return the same
// ColoringViolation, field for field, at every team size.
//
// Unlike the library check, its memory grows with the largest color, so
// feed it colors below the vertex count (plus a few) only.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "greedcolor/core/verify.hpp"
#include "greedcolor/util/marker_set.hpp"

namespace gcol::testing {

inline std::optional<ColoringViolation> oracle_check_bgpc(
    const BipartiteGraph& g, const std::vector<color_t>& colors) {
  if (colors.size() != static_cast<std::size_t>(g.num_vertices()))
    return ColoringViolation{kInvalidVertex, kInvalidVertex, kInvalidVertex,
                             "color array size mismatch"};
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (colors[static_cast<std::size_t>(u)] < 0)
      return ColoringViolation{u, kInvalidVertex, kInvalidVertex,
                               "uncolored vertex"};
  }
  // last_seen[color] = most recent vertex with that color in this net:
  // doubles as the marker and names the conflicting partner.
  std::vector<vid_t> last_seen;
  MarkerSet seen;
  for (vid_t v = 0; v < g.num_nets(); ++v) {
    seen.clear();
    for (const vid_t u : g.vtxs(v)) {
      const color_t cu = colors[static_cast<std::size_t>(u)];
      if (seen.contains(cu)) {
        return ColoringViolation{
            u, last_seen[static_cast<std::size_t>(cu)], v,
            "two vertices of one net share a color"};
      }
      seen.insert(cu);
      if (last_seen.size() <= static_cast<std::size_t>(cu))
        last_seen.resize(static_cast<std::size_t>(cu) + 64, kInvalidVertex);
      last_seen[static_cast<std::size_t>(cu)] = u;
    }
  }
  return std::nullopt;
}

inline std::optional<ColoringViolation> oracle_check_d2gc(
    const Graph& g, const std::vector<color_t>& colors) {
  if (colors.size() != static_cast<std::size_t>(g.num_vertices()))
    return ColoringViolation{kInvalidVertex, kInvalidVertex, kInvalidVertex,
                             "color array size mismatch"};
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (colors[static_cast<std::size_t>(u)] < 0)
      return ColoringViolation{u, kInvalidVertex, kInvalidVertex,
                               "uncolored vertex"};
  }
  std::vector<vid_t> last_seen;
  MarkerSet seen;
  auto visit = [&](vid_t member, vid_t middle)
      -> std::optional<ColoringViolation> {
    const color_t cm = colors[static_cast<std::size_t>(member)];
    if (seen.contains(cm)) {
      return ColoringViolation{member,
                               last_seen[static_cast<std::size_t>(cm)],
                               middle,
                               "distance-<=2 vertices share a color"};
    }
    seen.insert(cm);
    if (last_seen.size() <= static_cast<std::size_t>(cm))
      last_seen.resize(static_cast<std::size_t>(cm) + 64, kInvalidVertex);
    last_seen[static_cast<std::size_t>(cm)] = member;
    return std::nullopt;
  };
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    seen.clear();
    if (auto bad = visit(v, v)) return bad;
    for (const vid_t u : g.neighbors(v))
      if (auto bad = visit(u, v)) return bad;
  }
  return std::nullopt;
}

}  // namespace gcol::testing
