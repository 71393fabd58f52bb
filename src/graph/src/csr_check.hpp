// Linear-time CSR consistency checks shared by Graph::validate() and
// BipartiteGraph::validate().
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "greedcolor/util/types.hpp"

namespace gcol::detail {

/// `ptr` starts at 0 and never decreases. Its length and terminal are
/// invariants the constructors already enforce; an empty `ptr` is a
/// default-constructed graph.
inline bool ptr_is_valid(const std::vector<eid_t>& ptr) {
  return ptr.empty() ||
         (ptr.front() == 0 && std::is_sorted(ptr.begin(), ptr.end()));
}

/// True when every list of (ptr, adj) is strictly ascending with ids in
/// [0, opp_ptr.size() - 1), and (opp_ptr, opp_adj) is exactly its
/// transpose. `no_self_loops` additionally forbids row r listing id r.
/// Both ptr arrays must have passed ptr_is_valid() and end at the size
/// of their adjacency.
///
/// One merge instead of a binary search per edge: the rows are swept in
/// ascending order, so edge (r, v) must be the next unmatched entry of
/// opposite list v, and at the end every opposite list must be used up.
/// Passing the same arrays as both sides checks that an adjacency is its
/// own transpose, i.e. symmetric.
inline bool is_strict_transpose(const std::vector<eid_t>& ptr,
                                const std::vector<vid_t>& adj,
                                const std::vector<eid_t>& opp_ptr,
                                const std::vector<vid_t>& opp_adj,
                                bool no_self_loops) {
  if (ptr.empty() || opp_ptr.empty()) return adj.empty() && opp_adj.empty();
  const auto opp_rows = static_cast<vid_t>(opp_ptr.size() - 1);
  std::vector<eid_t> cursor(opp_ptr.begin(), opp_ptr.end() - 1);
  for (std::size_t r = 0; r + 1 < ptr.size(); ++r) {
    const auto row = static_cast<vid_t>(r);
    vid_t prev = -1;  // ids must exceed it: rejects negatives and disorder
    for (auto e = static_cast<std::size_t>(ptr[r]);
         e < static_cast<std::size_t>(ptr[r + 1]); ++e) {
      const vid_t v = adj[e];
      if (v <= prev || v >= opp_rows || (no_self_loops && v == row))
        return false;
      const eid_t slot = cursor[static_cast<std::size_t>(v)]++;
      if (slot >= opp_ptr[static_cast<std::size_t>(v) + 1] ||
          opp_adj[static_cast<std::size_t>(slot)] != row)
        return false;
      prev = v;
    }
  }
  // Every edge took one slot inside its list, so all lists are used up
  // exactly when both sides hold the same number of edges.
  return ptr.back() == opp_ptr.back();
}

}  // namespace gcol::detail
