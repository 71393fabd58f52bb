// Unipartite CSR graph: the input structure for distance-2 coloring.
#pragma once

#include <span>
#include <vector>

#include "greedcolor/util/types.hpp"

namespace gcol {

/// An undirected simple graph in compressed-sparse-row form. Adjacency
/// lists contain each undirected edge twice (u in adj(v) iff v in
/// adj(u)), are sorted, and hold no self-loops.
class Graph {
 public:
  Graph() = default;

  /// Takes ownership of validated CSR arrays. `ptr` has n+1 entries.
  Graph(vid_t n, std::vector<eid_t> ptr, std::vector<vid_t> adj);

  [[nodiscard]] vid_t num_vertices() const { return n_; }

  /// Directed adjacency entries (= 2x undirected edge count).
  [[nodiscard]] eid_t num_adjacency_entries() const {
    return ptr_.empty() ? 0 : ptr_.back();
  }

  [[nodiscard]] vid_t degree(vid_t v) const {
    return static_cast<vid_t>(ptr_[static_cast<std::size_t>(v) + 1] -
                              ptr_[static_cast<std::size_t>(v)]);
  }

  [[nodiscard]] std::span<const vid_t> neighbors(vid_t v) const {
    return {adj_.data() + ptr_[static_cast<std::size_t>(v)],
            adj_.data() + ptr_[static_cast<std::size_t>(v) + 1]};
  }

  [[nodiscard]] vid_t max_degree() const;

  [[nodiscard]] const std::vector<eid_t>& ptr() const { return ptr_; }
  [[nodiscard]] const std::vector<vid_t>& adj() const { return adj_; }

  /// Structural sanity check used by tests and the MatrixMarket loader:
  /// monotone ptr, sorted adjacency, no self loops, symmetric, in-range
  /// ids. O(|E| + n).
  [[nodiscard]] bool validate() const;

 private:
  vid_t n_ = 0;
  std::vector<eid_t> ptr_;
  std::vector<vid_t> adj_;
};

}  // namespace gcol
