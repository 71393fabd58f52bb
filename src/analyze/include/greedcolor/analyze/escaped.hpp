// The escaped-conflict sweep, shared by the auditor (audit.hpp), the
// gcol-mc model checker (check/mc.hpp) and repair (core/recolor.hpp).
// The speculative loop (paper §III) is correct only if, after a round's
// conflict removal, no two colored vertices that the engine's view makes
// adjacent share a color. Uncolored (re-queued) vertices are exempt:
// that is the speculation the paper sanctions. Runs on the calling
// thread, between parallel regions.
#pragma once

#include <cstddef>
#include <vector>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::audit {

/// Calls fn(a, b, via, color) for each escaped conflict in the partial
/// coloring `c`: a != b both hold `color` and meet through `via`.
/// BipartiteView / ClosedView: each net (N[v], center first) is swept
/// once, and a colored member is reported against the first member of
/// that net holding its color (`b`); `via` is the net (ClosedView: its
/// center, so via == b for adjacent vertices). Distance1View: each edge
/// once, via == b.
///
/// fn may uncolor `a` (store kNoColor into c[a] through the caller's
/// own array): the sweep reads each color as it visits it, so `a` then
/// clashes with nothing later, and the first holder keeps its color.
/// Repair does exactly that.
template <class V, class Fn>
void for_each_escaped_conflict(const V& view, const color_t* c, Fn&& fn) {
  if constexpr (V::kNetKernels) {
    // first[k]: the first holder of color k in net `net` (stale when
    // `net` is another one, so nothing is cleared between nets).
    struct Holder {
      vid_t net = kInvalidVertex;
      vid_t vertex = kInvalidVertex;
    };
    std::vector<Holder> first;
    for (vid_t v = 0; v < view.num_nets(); ++v) {
      const auto visit = [&](vid_t u) {
        const color_t cu = c[static_cast<std::size_t>(u)];
        if (cu == kNoColor) return;
        const auto k = static_cast<std::size_t>(cu);
        if (k >= first.size()) first.resize(k + 1);
        if (first[k].net == v)
          fn(u, first[k].vertex, v, cu);
        else
          first[k] = {v, u};
      };
      if constexpr (V::kCenter) visit(v);
      for (const vid_t u : view.others(v)) visit(u);
    }
  } else {
    for (vid_t v = 0; v < view.num_vertices(); ++v) {
      const color_t cv = c[static_cast<std::size_t>(v)];
      if (cv == kNoColor) continue;
      for (const vid_t u : view.nets(v))
        if (u > v && c[static_cast<std::size_t>(u)] == cv) fn(u, v, v, cv);
    }
  }
}

}  // namespace gcol::audit
