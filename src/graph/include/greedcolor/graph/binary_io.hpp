// Binary graph cache.
//
// Parsing a multi-hundred-megabyte MatrixMarket file (uk-2002 is a
// 4.6 GB .mtx) dominates end-to-end time for one-shot colorings; a
// binary CSR dump loads orders of magnitude faster. Format: magic +
// version + dimensions, then the raw CSR arrays, little-endian,
// validated on load.
//
// Validation is one O(|E| + n) merge (Graph/BipartiteGraph::validate):
// with both ptr arrays monotone from 0, the rows are swept in ascending
// order and each edge (r, v) must be the next unused entry of opposite
// list v, with every opposite list used up at the end. Ascending rows
// and strictly ascending lists make that hold exactly when the opposite
// side is the transpose, which is the same verdict as binary-searching
// every edge in the other side in both directions, without the log d.
#pragma once

#include <iosfwd>
#include <string>

#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"

namespace gcol {

void write_binary(std::ostream& out, const BipartiteGraph& g);
void write_binary(std::ostream& out, const Graph& g);
void write_binary_file(const std::string& path, const BipartiteGraph& g);
void write_binary_file(const std::string& path, const Graph& g);

/// Throws std::runtime_error on bad magic/version/corruption.
[[nodiscard]] BipartiteGraph read_binary_bipartite(std::istream& in);
[[nodiscard]] Graph read_binary_graph(std::istream& in);
[[nodiscard]] BipartiteGraph read_binary_bipartite_file(
    const std::string& path);
[[nodiscard]] Graph read_binary_graph_file(const std::string& path);

/// Peek at the stream kind without consuming it ("bipartite", "graph",
/// or "" when the magic does not match).
[[nodiscard]] std::string binary_kind(std::istream& in);

}  // namespace gcol
