#include "greedcolor/graph/bipartite.hpp"

#include <algorithm>

#include "csr_check.hpp"

namespace gcol {

namespace {

constexpr detail::CsrNames kNames{"BipartiteGraph", "vptr", "vertex", "net"};

}  // namespace

BipartiteGraph::BipartiteGraph(vid_t num_vertices, vid_t num_nets,
                               std::vector<eid_t> vptr,
                               std::vector<vid_t> vadj)
    : num_vertices_(num_vertices),
      num_nets_(num_nets),
      vptr_(std::move(vptr)),
      vadj_(std::move(vadj)) {
  detail::check_ptr(kNames, vptr_, num_vertices_, num_nets_, vadj_.size());
  const std::size_t bad =
      detail::transpose_side(vptr_, vadj_, num_nets_, nptr_, nadj_);
  if (bad < static_cast<std::size_t>(num_vertices_))
    detail::reject_row(kNames, vptr_, vadj_, bad, num_nets_, false);
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

}  // namespace gcol
