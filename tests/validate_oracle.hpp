// Sequential oracles for the graph constructors' structural gate.
//
// oracle_is_strict_transpose() is the single-threaded transpose merge the
// gate used before its rows were split into blocks: the rows are swept in
// ascending order, so edge (r, v) must be the next unmatched entry of
// opposite list v, and at the end every opposite list must be used up.
// The verdicts below spell out, one row at a time, what the constructors
// must refuse and which row and error they must name; the blocked gate
// must give the same verdict at every team size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::testing {

/// The first row at which the single merge fails, or the row count when
/// (ptr, adj) is strictly ascending in range and (opp_ptr, opp_adj) is
/// its exact transpose. Both ptr arrays must start at 0, never decrease
/// and end at the size of their adjacency.
inline std::size_t oracle_first_unmatched_row(
    const std::vector<eid_t>& ptr, const std::vector<vid_t>& adj,
    const std::vector<eid_t>& opp_ptr, const std::vector<vid_t>& opp_adj,
    bool no_self_loops) {
  const std::size_t rows = ptr.size() - 1;
  const auto opp_rows = static_cast<vid_t>(opp_ptr.size() - 1);
  std::vector<eid_t> cursor(opp_ptr.begin(), opp_ptr.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = static_cast<vid_t>(r);
    vid_t prev = -1;  // ids must exceed it: rejects negatives and disorder
    for (auto e = static_cast<std::size_t>(ptr[r]);
         e < static_cast<std::size_t>(ptr[r + 1]); ++e) {
      const vid_t v = adj[e];
      if (v <= prev || v >= opp_rows || (no_self_loops && v == row)) return r;
      const eid_t slot = cursor[static_cast<std::size_t>(v)]++;
      if (slot >= opp_ptr[static_cast<std::size_t>(v) + 1] ||
          opp_adj[static_cast<std::size_t>(slot)] != row)
        return r;
      prev = v;
    }
  }
  return rows;
}

/// Every edge took one slot inside its list, so all lists are used up
/// exactly when both sides hold the same number of edges.
inline bool oracle_is_strict_transpose(const std::vector<eid_t>& ptr,
                                       const std::vector<vid_t>& adj,
                                       const std::vector<eid_t>& opp_ptr,
                                       const std::vector<vid_t>& opp_adj) {
  return oracle_first_unmatched_row(ptr, adj, opp_ptr, opp_adj, false) ==
             ptr.size() - 1 &&
         ptr.back() == opp_ptr.back();
}

/// "ok", or the error the gate must throw: its code's name, then the
/// first bad row ("out-of-range at 12") or, for a fault of the ptr array
/// as a whole or of a dimension, "no row".
inline std::string oracle_refusal(ErrorCode code, long long row) {
  return std::string(to_string(code)) +
         (row < 0 ? " no row" : " at " + std::to_string(row));
}

/// The ptr array's own faults, in the gate's order: length, start,
/// first decrease, end. "ok" when there is none.
inline std::string oracle_ptr_verdict(const std::vector<eid_t>& ptr,
                                      vid_t rows, std::size_t adj_size) {
  if (ptr.size() != static_cast<std::size_t>(rows) + 1)
    return oracle_refusal(ErrorCode::kBadInput, -1);
  if (ptr.front() != 0) return oracle_refusal(ErrorCode::kBadInput, 0);
  for (std::size_t i = 0; i + 1 < ptr.size(); ++i)
    if (ptr[i + 1] < ptr[i])
      return oracle_refusal(ErrorCode::kBadInput, static_cast<long long>(i));
  if (ptr.back() != static_cast<eid_t>(adj_size))
    return oracle_refusal(ErrorCode::kBadInput, -1);
  return "ok";
}

/// The refusal for row r, the first bad one: kOutOfRange when the first
/// entry at fault is an id out of [0, ids), kBadInput otherwise.
inline std::string oracle_row_refusal(const std::vector<eid_t>& ptr,
                                      const std::vector<vid_t>& adj,
                                      std::size_t r, vid_t ids) {
  const auto row = static_cast<long long>(r);
  vid_t prev = -1;
  for (auto e = static_cast<std::size_t>(ptr[r]);
       e < static_cast<std::size_t>(ptr[r + 1]); ++e) {
    const vid_t v = adj[e];
    if (v < 0 || v >= ids) return oracle_refusal(ErrorCode::kOutOfRange, row);
    if (v <= prev) break;
    prev = v;
  }
  return oracle_refusal(ErrorCode::kBadInput, row);
}

/// What BipartiteGraph(num_vertices, num_nets, vptr, vadj) must do.
inline std::string oracle_bipartite_verdict(vid_t num_vertices,
                                            vid_t num_nets,
                                            const std::vector<eid_t>& vptr,
                                            const std::vector<vid_t>& vadj) {
  if (num_vertices < 0 || num_nets < 0)
    return oracle_refusal(ErrorCode::kOutOfRange, -1);
  const std::string ptr = oracle_ptr_verdict(vptr, num_vertices, vadj.size());
  if (ptr != "ok") return ptr;
  for (std::size_t r = 0; r < static_cast<std::size_t>(num_vertices); ++r) {
    vid_t prev = -1;
    for (auto e = static_cast<std::size_t>(vptr[r]);
         e < static_cast<std::size_t>(vptr[r + 1]); ++e) {
      const vid_t v = vadj[e];
      if (v <= prev || v >= num_nets)
        return oracle_row_refusal(vptr, vadj, r, num_nets);
      prev = v;
    }
  }
  return "ok";
}

/// What Graph(n, ptr, adj) must do.
inline std::string oracle_graph_verdict(vid_t n, const std::vector<eid_t>& ptr,
                                        const std::vector<vid_t>& adj) {
  if (n < 0) return oracle_refusal(ErrorCode::kOutOfRange, -1);
  const std::string verdict = oracle_ptr_verdict(ptr, n, adj.size());
  if (verdict != "ok") return verdict;
  const std::size_t r = oracle_first_unmatched_row(ptr, adj, ptr, adj, true);
  return r == static_cast<std::size_t>(n) ? "ok"
                                          : oracle_row_refusal(ptr, adj, r, n);
}

/// The same verdict read off a constructor call: "ok", or the thrown
/// Error's code and the row its message names ("... at vertex 12: ...").
template <class Make>
std::string gate_verdict(const Make& make) {
  try {
    (void)make();
    return "ok";
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string at = "] at vertex ";
    const std::size_t pos = what.find(at);
    return oracle_refusal(
        e.code(), pos == std::string::npos
                      ? -1
                      : std::stoll(what.substr(pos + at.size())));
  }
}

}  // namespace gcol::testing
