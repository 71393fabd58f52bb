// Saturation-degree (DSATUR / Brélaz) greedy coloring.
//
// The dynamic-ordering alternative the paper's related work cites
// (Brélaz '79): always color next the vertex that currently sees the
// most distinct colors in its (distance-2) neighborhood. Sequential
// only — the dynamic order is inherently serial — and typically a few
// colors better than any static order, at a large constant-factor cost.
// Provided as the color-quality upper baseline for the ordering
// ablation bench.
#pragma once

#include "greedcolor/core/result.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"

namespace gcol {

/// DSATUR for BGPC: saturation of u = distinct colors among vertices
/// sharing a net with u. The first pick is a vertex of largest
/// distance-2 degree (the lowest id among them); later ties go by the
/// saturation buckets' order.
[[nodiscard]] ColoringResult color_bgpc_dsatur(const BipartiteGraph& g);

/// Classic Brélaz DSATUR for distance-1 coloring, seeded and tied the
/// same way (degree for distance-2 degree). Both are one loop over a
/// net view.
[[nodiscard]] ColoringResult color_d1gc_dsatur(const Graph& g);

}  // namespace gcol
