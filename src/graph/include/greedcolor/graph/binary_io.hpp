// Binary graph cache.
//
// Parsing a multi-hundred-megabyte MatrixMarket file (uk-2002 is a
// 4.6 GB .mtx) dominates end-to-end time for one-shot colorings; a
// binary CSR dump loads orders of magnitude faster. Layout, all
// little-endian: an 8-byte magic, the dimensions as int64, then each
// array as a u64 length and its raw elements.
//
//   bipartite, format v2 ("GCOLBP02"): |V_A|, |V_B|, vptr, vadj
//   graph ("GCOLGR01"):                 n, ptr, adj
//
// A bipartite file holds the vertex side only: the net side is its
// transpose, which the BipartiteGraph constructor derives on load. A
// format v1 file ("GCOLBP01", both sides) is refused with
// kCorruptHeader. Every array length is checked against its structural
// cap and the bytes left in the stream before anything is allocated,
// and so is the net count past 2^20 nets, since no array carries it;
// the arrays then go to the graph constructor, whose structural gate
// throws the typed error for a bad graph.
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

/// Throws gcol::Error on a bad magic or version, a truncated or corrupt
/// stream, or a graph its constructor refuses.
[[nodiscard]] BipartiteGraph read_binary_bipartite(std::istream& in);
[[nodiscard]] Graph read_binary_graph(std::istream& in);
[[nodiscard]] BipartiteGraph read_binary_bipartite_file(
    const std::string& path);
[[nodiscard]] Graph read_binary_graph_file(const std::string& path);

/// Peek at the stream kind without consuming it ("bipartite", "graph",
/// or "" when the magic does not match).
[[nodiscard]] std::string binary_kind(std::istream& in);

}  // namespace gcol
