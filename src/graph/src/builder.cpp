#include "greedcolor/graph/builder.hpp"

#include <stdexcept>
#include <utility>

#include "csr_build.hpp"

namespace gcol {

BipartiteGraph build_bipartite(Coo coo) {
  detail::check_coo(coo, "build_bipartite");
  // Vertex side: cols -> sorted, distinct rows. The constructor derives
  // the net side.
  detail::CsrLists vtxs = detail::sorted_cols(coo);
  return BipartiteGraph(coo.num_cols, coo.num_rows, std::move(vtxs.ptr),
                        std::move(vtxs.adj));
}

Graph build_graph(Coo coo) {
  if (coo.num_rows != coo.num_cols)
    throw std::invalid_argument("build_graph: pattern must be square");
  detail::check_coo(coo, "build_graph");
  // Both directions of every off-diagonal entry, bucketed by one end; the
  // transpose then lists each vertex's neighbours ascending, repeats
  // adjacent, and the dedup pass drops them.
  const detail::CsrLists both =
      detail::bucket(coo.num_rows, 2 * coo.nnz(), [&](const auto& visit) {
        for (std::size_t i = 0; i < coo.rows.size(); ++i) {
          const vid_t r = coo.rows[i];
          const vid_t c = coo.cols[i];
          if (r == c) continue;
          visit(r, c);
          visit(c, r);
        }
      });
  detail::CsrLists adj = detail::transpose(both, coo.num_rows);
  detail::dedup_sorted(adj);
  return Graph(coo.num_rows, std::move(adj.ptr), std::move(adj.adj));
}

Graph bipartite_to_graph(const BipartiteGraph& bg) {
  if (bg.num_vertices() != bg.num_nets())
    throw std::invalid_argument(
        "bipartite_to_graph: instance must be square");
  Coo coo;
  coo.num_rows = bg.num_nets();
  coo.num_cols = bg.num_vertices();
  coo.reserve(bg.num_edges());
  for (vid_t v = 0; v < bg.num_nets(); ++v)
    for (const vid_t u : bg.vtxs(v)) coo.add(v, u);
  return build_graph(std::move(coo));
}

BipartiteGraph transpose(const BipartiteGraph& g) {
  return BipartiteGraph(g.num_nets(), g.num_vertices(), g.nptr(), g.nadj());
}

BipartiteGraph graph_to_bipartite_closed(const Graph& g) {
  Coo coo;
  coo.num_rows = g.num_vertices();
  coo.num_cols = g.num_vertices();
  coo.reserve(g.num_adjacency_entries() + g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    coo.add(v, v);  // closed neighborhood: v belongs to its own net
    for (const vid_t u : g.neighbors(v)) coo.add(v, u);
  }
  return build_bipartite(std::move(coo));
}

}  // namespace gcol
