// Distance-2 graph coloring (D2GC) on unipartite graphs.
//
// The same speculative framework as BGPC with the paper's Section IV
// adaptation: the "net" role is played by each vertex's closed
// neighborhood, so kernels additionally handle the middle vertex itself
// (distance-1 neighbors) and reverse first-fit starts at |nbor(v)|.
#pragma once

#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/graph/csr.hpp"

namespace gcol {

/// Parallel speculative D2GC. Accepts the same presets as BGPC that
/// Table V evaluates (V-V, V-V-64D, V-N1, V-N2, N1-N2). A non-empty
/// `order` must be a permutation of [0, g.num_vertices()), here and in
/// color_d2gc_sequential, else std::invalid_argument is thrown.
[[nodiscard]] ColoringResult color_d2gc(
    const Graph& g, const ColoringOptions& options = {},
    const std::vector<vid_t>& order = {});

/// Deterministic sequential greedy D2GC (first-fit over `order`) —
/// ColPack ships only this for D2GC; it is the Table V baseline.
[[nodiscard]] ColoringResult color_d2gc_sequential(
    const Graph& g, const std::vector<vid_t>& order = {});

/// Upper bound on any color id the D2GC kernels can assign:
/// 1 + max_v Σ_{u ∈ N[v]} |nbor(u)| (multiplicity bound).
[[nodiscard]] color_t d2gc_color_bound(const Graph& g);

}  // namespace gcol
