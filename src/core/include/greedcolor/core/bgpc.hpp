// Bipartite-graph partial coloring (BGPC): the library's primary entry
// points.
//
// color_bgpc() runs the speculative color/conflict-removal loop of the
// paper with any of the eight algorithm presets (or a custom
// ColoringOptions), returning a valid coloring of the V_A side together
// with per-round timings and work counters.
#pragma once

#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/graph/bipartite.hpp"

namespace gcol {

/// Parallel speculative BGPC. `order` optionally permutes the initial
/// work queue (natural order when empty); it must be a permutation of
/// [0, g.num_vertices()), else std::invalid_argument is thrown (also by
/// color_bgpc_sequential).
[[nodiscard]] ColoringResult color_bgpc(
    const BipartiteGraph& g, const ColoringOptions& options = {},
    const std::vector<vid_t>& order = {});

/// Deterministic sequential greedy BGPC (first-fit over `order`): the
/// Table II baseline. Never needs conflict removal.
[[nodiscard]] ColoringResult color_bgpc_sequential(
    const BipartiteGraph& g, const std::vector<vid_t>& order = {});

/// Upper bound on any color id the kernels can assign on `g` —
/// 1 + the maximum distance-2 degree (with multiplicity). Used to size
/// forbidden-color markers; exposed for tests.
[[nodiscard]] color_t bgpc_color_bound(const BipartiteGraph& g);

}  // namespace gcol
