// Bipartite CSR graph: the input structure for BGPC.
//
// Following the paper's hypergraph terminology, the V_A side holds the
// *vertices* to color (matrix columns) and the V_B side the *nets*
// (matrix rows). Both directions of the incidence are stored in CSR so
// vertex-based kernels can walk nets(u) and net-based kernels vtxs(v)
// without transposition at run time. Only the vertex side is an input:
// the constructor checks it and derives the net side as its transpose,
// so every BipartiteGraph is well-formed and its two sides agree.
#pragma once

#include <span>
#include <vector>

#include "greedcolor/util/types.hpp"

namespace gcol {

class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Takes ownership of the vertex side: `vptr` has num_vertices+1
  /// entries, starts at 0, never decreases and ends at |vadj|, and each
  /// list nets(u) is strictly ascending with ids in [0, num_nets). The
  /// net side is derived as its transpose (a counting transpose on the
  /// OpenMP team). Anything else throws gcol::Error naming the first bad
  /// vertex and the fault: kOutOfRange for a net id out of range or a
  /// negative dimension, kBadInput for a bad ptr, a repeat or disorder.
  /// O(|E| + n).
  BipartiteGraph(vid_t num_vertices, vid_t num_nets, std::vector<eid_t> vptr,
                 std::vector<vid_t> vadj);

  /// |V_A| — the colored side (matrix columns).
  [[nodiscard]] vid_t num_vertices() const { return num_vertices_; }
  /// |V_B| — the nets (matrix rows).
  [[nodiscard]] vid_t num_nets() const { return num_nets_; }
  [[nodiscard]] eid_t num_edges() const {
    return vptr_.empty() ? 0 : vptr_.back();
  }

  /// nets(u): nets incident to vertex u.
  [[nodiscard]] std::span<const vid_t> nets(vid_t u) const {
    return {vadj_.data() + vptr_[static_cast<std::size_t>(u)],
            vadj_.data() + vptr_[static_cast<std::size_t>(u) + 1]};
  }

  /// vtxs(v): vertices incident to net v.
  [[nodiscard]] std::span<const vid_t> vtxs(vid_t v) const {
    return {nadj_.data() + nptr_[static_cast<std::size_t>(v)],
            nadj_.data() + nptr_[static_cast<std::size_t>(v) + 1]};
  }

  [[nodiscard]] vid_t vertex_degree(vid_t u) const {
    return static_cast<vid_t>(vptr_[static_cast<std::size_t>(u) + 1] -
                              vptr_[static_cast<std::size_t>(u)]);
  }

  [[nodiscard]] vid_t net_degree(vid_t v) const {
    return static_cast<vid_t>(nptr_[static_cast<std::size_t>(v) + 1] -
                              nptr_[static_cast<std::size_t>(v)]);
  }

  /// max_v |vtxs(v)|: the paper's trivial lower bound L on BGPC colors.
  [[nodiscard]] vid_t max_net_degree() const;

  [[nodiscard]] vid_t max_vertex_degree() const;

  [[nodiscard]] const std::vector<eid_t>& vptr() const { return vptr_; }
  [[nodiscard]] const std::vector<vid_t>& vadj() const { return vadj_; }
  [[nodiscard]] const std::vector<eid_t>& nptr() const { return nptr_; }
  [[nodiscard]] const std::vector<vid_t>& nadj() const { return nadj_; }

 private:
  vid_t num_vertices_ = 0;
  vid_t num_nets_ = 0;
  std::vector<eid_t> vptr_;
  std::vector<vid_t> vadj_;
  std::vector<eid_t> nptr_;
  std::vector<vid_t> nadj_;
};

}  // namespace gcol
