#include "greedcolor/graph/csr.hpp"

#include <algorithm>
#include <stdexcept>

#include "csr_check.hpp"

namespace gcol {

Graph::Graph(vid_t n, std::vector<eid_t> ptr, std::vector<vid_t> adj)
    : n_(n), ptr_(std::move(ptr)), adj_(std::move(adj)) {
  if (ptr_.size() != static_cast<std::size_t>(n_) + 1)
    throw std::invalid_argument("Graph: ptr must have n+1 entries");
  if (ptr_.front() != 0 ||
      ptr_.back() != static_cast<eid_t>(adj_.size()))
    throw std::invalid_argument("Graph: ptr endpoints inconsistent with adj");
}

vid_t Graph::max_degree() const {
  vid_t best = 0;
  for (vid_t v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

bool Graph::validate() const {
  return detail::ptr_is_valid(ptr_) &&
         detail::is_strict_transpose(ptr_, adj_, ptr_, adj_,
                                     /*no_self_loops=*/true);
}

}  // namespace gcol
