// The single-threaded transpose merge validate() used before its rows
// were split into blocks, kept as the differential oracle: the rows are
// swept in ascending order, so edge (r, v) must be the next unmatched
// entry of opposite list v, and at the end every opposite list must be
// used up. The blocked merge must give the same verdict at every team
// size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::testing {

inline bool oracle_ptr_is_valid(const std::vector<eid_t>& ptr) {
  return ptr.empty() ||
         (ptr.front() == 0 && std::is_sorted(ptr.begin(), ptr.end()));
}

inline bool oracle_is_strict_transpose(const std::vector<eid_t>& ptr,
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

inline bool oracle_validate(const Graph& g) {
  return oracle_ptr_is_valid(g.ptr()) &&
         oracle_is_strict_transpose(g.ptr(), g.adj(), g.ptr(), g.adj(),
                                    /*no_self_loops=*/true);
}

inline bool oracle_validate(const BipartiteGraph& g) {
  return oracle_ptr_is_valid(g.vptr()) && oracle_ptr_is_valid(g.nptr()) &&
         oracle_is_strict_transpose(g.vptr(), g.vadj(), g.nptr(), g.nadj(),
                                    /*no_self_loops=*/false);
}

}  // namespace gcol::testing
