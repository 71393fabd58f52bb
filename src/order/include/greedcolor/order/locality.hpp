// Cache-locality pre-pass for the coloring drivers (the opt-in
// ColoringOptions::locality knob).
//
// The speculative kernels are memory-bound: almost every cycle is spent
// streaming adjacency lists and loading neighbor colors. A degree-aware
// renumbering (kFull) places vertices sharing a net at consecutive ids,
// so their colors share cache lines during the net-based passes. (Lists
// need no separate sorting pass: validate() already requires them
// strictly ascending.) The driver colors the rewritten graph and maps
// the colors back through the permutation — callers always see original
// ids.
#pragma once

#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

/// Rewritten BGPC input plus the permutations (old id -> new id) that
/// produced it. Empty permutation = identity (kNone keeps ids).
struct BgpcLocalityPlan {
  BipartiteGraph graph;
  std::vector<vid_t> vertex_perm;
  std::vector<vid_t> net_perm;
};

/// Rewritten D2GC input plus its vertex permutation (old -> new).
struct GraphLocalityPlan {
  Graph graph;
  std::vector<vid_t> vertex_perm;
};

/// kFull: nets renumbered by descending degree (stable by id), vertices
/// by first-touch order over the renumbered nets, lists sorted.
[[nodiscard]] BgpcLocalityPlan make_locality_plan(const BipartiteGraph& g,
                                                  LocalityMode mode);

/// kFull: BFS numbering seeded from the highest-degree
/// vertex of each component (components in descending seed degree).
[[nodiscard]] GraphLocalityPlan make_locality_plan(const Graph& g,
                                                   LocalityMode mode);

/// Translate a processing order over old ids into the renumbered space:
/// position i still processes the same logical vertex. An empty `perm`
/// returns `order` unchanged; an empty `order` stands for the natural
/// order over `n` vertices.
[[nodiscard]] std::vector<vid_t> apply_vertex_perm(
    const std::vector<vid_t>& perm, const std::vector<vid_t>& order, vid_t n);

/// Map colors computed in the renumbered space back to old ids:
/// result[u_old] = colors[perm[u_old]]. Empty perm passes through.
[[nodiscard]] std::vector<color_t> restore_colors(
    const std::vector<vid_t>& perm, std::vector<color_t> colors);

}  // namespace gcol
