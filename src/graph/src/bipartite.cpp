#include "greedcolor/graph/bipartite.hpp"

#include <algorithm>
#include <stdexcept>

#include "csr_check.hpp"

namespace gcol {

BipartiteGraph::BipartiteGraph(vid_t num_vertices, vid_t num_nets,
                               std::vector<eid_t> vptr,
                               std::vector<vid_t> vadj,
                               std::vector<eid_t> nptr,
                               std::vector<vid_t> nadj)
    : num_vertices_(num_vertices),
      num_nets_(num_nets),
      vptr_(std::move(vptr)),
      vadj_(std::move(vadj)),
      nptr_(std::move(nptr)),
      nadj_(std::move(nadj)) {
  if (vptr_.size() != static_cast<std::size_t>(num_vertices_) + 1 ||
      nptr_.size() != static_cast<std::size_t>(num_nets_) + 1)
    throw std::invalid_argument("BipartiteGraph: bad ptr array length");
  if (vptr_.back() != static_cast<eid_t>(vadj_.size()) ||
      nptr_.back() != static_cast<eid_t>(nadj_.size()) ||
      vadj_.size() != nadj_.size())
    throw std::invalid_argument("BipartiteGraph: halves disagree on |E|");
}

vid_t BipartiteGraph::max_net_degree() const {
  vid_t best = 0;
  for (vid_t v = 0; v < num_nets_; ++v) best = std::max(best, net_degree(v));
  return best;
}

vid_t BipartiteGraph::max_vertex_degree() const {
  vid_t best = 0;
  for (vid_t u = 0; u < num_vertices_; ++u)
    best = std::max(best, vertex_degree(u));
  return best;
}

bool BipartiteGraph::validate() const {
  return detail::ptr_is_valid(vptr_) && detail::ptr_is_valid(nptr_) &&
         detail::is_strict_transpose(vptr_, vadj_, nptr_, nadj_,
                                     /*no_self_loops=*/false);
}

}  // namespace gcol
