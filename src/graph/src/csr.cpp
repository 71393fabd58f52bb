#include "greedcolor/graph/csr.hpp"

#include <algorithm>

#include "csr_check.hpp"

namespace gcol {

namespace {

constexpr detail::CsrNames kNames{"Graph", "ptr", "vertex", "neighbor"};

}  // namespace

Graph::Graph(vid_t n, std::vector<eid_t> ptr, std::vector<vid_t> adj)
    : n_(n), ptr_(std::move(ptr)), adj_(std::move(adj)) {
  detail::check_ptr(kNames, ptr_, n_, n_, adj_.size());
  const std::size_t bad = detail::first_asymmetric_row(ptr_, adj_, true);
  if (bad < static_cast<std::size_t>(n_))
    detail::reject_row(kNames, ptr_, adj_, bad, n_, true);
}

vid_t Graph::max_degree() const {
  vid_t best = 0;
  for (vid_t v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace gcol
