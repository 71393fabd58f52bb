// Linear-time CSR consistency checks shared by Graph::validate() and
// BipartiteGraph::validate().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::detail {

/// `ptr` starts at 0 and never decreases. Its length and terminal are
/// invariants the constructors already enforce; an empty `ptr` is a
/// default-constructed graph.
inline bool ptr_is_valid(const std::vector<eid_t>& ptr) {
  return ptr.empty() ||
         (ptr.front() == 0 && std::is_sorted(ptr.begin(), ptr.end()));
}

/// Edges per block below which is_strict_transpose() does not split the
/// rows: a smaller block would not repay the fork of the team. On a
/// 4-vCPU Xeon, random graphs of 6 edges per row merge in 89 us in one
/// block and 76 us in two at 18k edges, but in 51 us either way at 12k.
inline constexpr std::size_t kMinEdgesPerBlock = 8192;

/// True when every list of (ptr, adj) is strictly ascending with ids in
/// [0, opp_ptr.size() - 1), and (opp_ptr, opp_adj) is exactly its
/// transpose. `no_self_loops` additionally forbids row r listing id r.
/// Both ptr arrays must have passed ptr_is_valid() and end at the size
/// of their adjacency.
///
/// One merge instead of a binary search per edge: the rows are swept in
/// ascending order, so edge (r, v) must be the next unmatched entry of
/// opposite list v. The rows split into at most omp_get_max_threads()
/// contiguous blocks, merged in parallel. Each block gets at least
/// kMinEdgesPerBlock edges, and more edges than there are opposite
/// lists, since it fills and prefix-sums one cursor per list: split, the
/// cursors never outgrow the adjacency. Block b's cursor into list v
/// starts at the list's start plus how often the blocks before it name
/// v: on a valid list, the first entry >= b's first row, and a block
/// stops exactly where the next one starts. So every edge takes its own
/// slot inside its list, and all lists are used up exactly when both
/// sides hold the same number of edges: the verdict is the single
/// merge's at every team size. Passing the same arrays as both sides
/// checks that an adjacency is its own transpose, i.e. symmetric.
inline bool is_strict_transpose(const std::vector<eid_t>& ptr,
                                const std::vector<vid_t>& adj,
                                const std::vector<eid_t>& opp_ptr,
                                const std::vector<vid_t>& opp_adj,
                                bool no_self_loops) {
  if (ptr.empty() || opp_ptr.empty()) return adj.empty() && opp_adj.empty();
  if (ptr.back() != opp_ptr.back()) return false;
  const std::size_t rows = ptr.size() - 1;
  const std::size_t opp_rows = opp_ptr.size() - 1;
  const auto opp_ids = static_cast<vid_t>(opp_rows);
  const auto blocks = static_cast<std::int64_t>(std::clamp<std::size_t>(
      adj.size() / std::max(kMinEdgesPerBlock, opp_rows), 1,
      static_cast<std::size_t>(max_threads())));
  const auto first_row = [rows, blocks](std::int64_t b) {
    return rows * static_cast<std::size_t>(b) /
           static_cast<std::size_t>(blocks);
  };
  // cursor[b * opp_rows + v]: first how often block b names v (the last
  // block's count is never needed), then block b's cursor into list v.
  // Left uninitialized here: each block zeroes its own slice, so the
  // thread that merges a block first-touches its pages. Three regions,
  // not one with barriers, so each hand-off between threads is a
  // TeamFold edge ThreadSanitizer can see.
  const std::unique_ptr<eid_t[]> cursor(
      new eid_t[static_cast<std::size_t>(blocks) * opp_rows]);
  eid_t* const cursors = cursor.get();
  TeamFold<bool> counted(true);
#pragma omp parallel num_threads(blocks) default(none)  \
    shared(ptr, adj, first_row, counted)                \
    firstprivate(cursors, opp_rows, opp_ids, blocks)
  {
    const bool ok = counted.get();
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t b = 0; b < blocks; ++b) {
      eid_t* const count = cursors + static_cast<std::size_t>(b) * opp_rows;
      std::fill(count, count + opp_rows, eid_t{0});
      if (b + 1 == blocks) continue;
      const auto end = static_cast<std::size_t>(ptr[first_row(b + 1)]);
      for (auto e = static_cast<std::size_t>(ptr[first_row(b)]); e < end;
           ++e) {
        const vid_t v = adj[e];
        if (v >= 0 && v < opp_ids) ++count[static_cast<std::size_t>(v)];
      }
    }
    counted.fold(ok, std::logical_and<>{});
  }
  TeamFold<bool> started(counted.get());
#pragma omp parallel num_threads(blocks) default(none) \
    shared(opp_ptr, started) firstprivate(cursors, opp_rows, blocks)
  {
    const bool ok = started.get();
#pragma omp for schedule(static) nowait
    for (std::size_t v = 0; v < opp_rows; ++v) {
      eid_t start = opp_ptr[v];
      for (std::size_t i = v; i < static_cast<std::size_t>(blocks) * opp_rows;
           i += opp_rows) {
        const eid_t count = cursors[i];
        cursors[i] = start;
        start += count;
      }
    }
    started.fold(ok, std::logical_and<>{});
  }
  TeamFold<bool> valid(started.get());
#pragma omp parallel num_threads(blocks) default(none)          \
    shared(ptr, adj, opp_ptr, opp_adj, first_row, valid)        \
    firstprivate(cursors, opp_rows, opp_ids, blocks, no_self_loops)
  {
    bool ok = valid.get();
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t b = 0; b < blocks; ++b) {
      eid_t* const next = cursors + static_cast<std::size_t>(b) * opp_rows;
      const std::size_t hi = first_row(b + 1);
      for (std::size_t r = first_row(b); r < hi && ok; ++r) {
        const auto row = static_cast<vid_t>(r);
        vid_t prev = -1;  // ids must exceed it: rejects negatives, disorder
        const auto end = static_cast<std::size_t>(ptr[r + 1]);
        for (auto e = static_cast<std::size_t>(ptr[r]); e < end; ++e) {
          const vid_t v = adj[e];
          if (v <= prev || v >= opp_ids || (no_self_loops && v == row)) {
            ok = false;
            break;
          }
          const eid_t slot = next[static_cast<std::size_t>(v)]++;
          if (slot >= opp_ptr[static_cast<std::size_t>(v) + 1] ||
              opp_adj[static_cast<std::size_t>(slot)] != row) {
            ok = false;
            break;
          }
          prev = v;
        }
      }
    }
    valid.fold(ok, std::logical_and<>{});
  }
  return valid.get();
}

}  // namespace gcol::detail
