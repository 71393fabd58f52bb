// Builders converting COO patterns into the CSR containers.
#pragma once

#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/coo.hpp"
#include "greedcolor/graph/csr.hpp"

namespace gcol {

/// Build a bipartite graph from a (deduplicated or not) matrix pattern:
/// rows become nets, columns become the vertices to color. Duplicate
/// entries are removed; the input is consumed. O(nnz + rows + cols).
/// Throws std::invalid_argument on negative dimensions or inconsistent
/// COO array lengths, and std::out_of_range on an entry outside the
/// dimensions.
[[nodiscard]] BipartiteGraph build_bipartite(Coo coo);

/// Build an undirected simple graph from a square pattern: entry (r,c)
/// becomes edge {r,c}; the pattern is symmetrized and self-loops
/// (diagonal entries) are dropped. The input is consumed. Throws like
/// build_bipartite(), and std::invalid_argument on a non-square pattern.
[[nodiscard]] Graph build_graph(Coo coo);

/// View a structurally symmetric square bipartite instance as the
/// unipartite graph D2GC runs on: the matrix adjacency minus diagonal.
[[nodiscard]] Graph bipartite_to_graph(const BipartiteGraph& bg);

/// Interpret an undirected graph as a BGPC instance whose nets are the
/// closed neighborhoods N[v]; BGPC on it equals D2GC on the graph.
/// Used by tests to cross-validate the two engines.
[[nodiscard]] BipartiteGraph graph_to_bipartite_closed(const Graph& g);

/// Swap the two sides: vertices become nets and vice versa. Coloring
/// the transpose colors the matrix ROWS instead of the columns —
/// ColPack's row-partial-coloring mode (used for Jacobians evaluated
/// with reverse-mode/adjoint products).
[[nodiscard]] BipartiteGraph transpose(const BipartiteGraph& g);

}  // namespace gcol
