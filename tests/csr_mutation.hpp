// Single-edit corruptions of one CSR half (a ptr array and its
// adjacency), for differential tests of the validate() members.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "greedcolor/util/prng.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::testing {

enum class CsrMutation {
  kOutOfRange,   ///< an id becomes -1 or `universe`
  kDuplicate,    ///< a list repeats its previous id
  kSwappedPair,  ///< two neighbouring ids swap: the list is unsorted
  kOneSided,     ///< a list's last id becomes a larger, absent one
  kMovedEntry,   ///< a list's last entry moves to the front of the next
  kSelfLoop,     ///< row r gains r, in sorted position (unipartite)
  kPtrStart,     ///< ptr[0] becomes 1
};

inline constexpr CsrMutation kAllCsrMutations[] = {
    CsrMutation::kOutOfRange, CsrMutation::kDuplicate,
    CsrMutation::kSwappedPair, CsrMutation::kOneSided,
    CsrMutation::kMovedEntry, CsrMutation::kSelfLoop,
    CsrMutation::kPtrStart};

inline const char* to_string(CsrMutation m) {
  switch (m) {
    case CsrMutation::kOutOfRange: return "out-of-range";
    case CsrMutation::kDuplicate: return "duplicate";
    case CsrMutation::kSwappedPair: return "swapped-pair";
    case CsrMutation::kOneSided: return "one-sided";
    case CsrMutation::kMovedEntry: return "moved-entry";
    case CsrMutation::kSelfLoop: return "self-loop";
    case CsrMutation::kPtrStart: return "ptr-start";
  }
  return "unknown";
}

/// Apply `m` to the half (ptr, adj), whose ids range over [0, universe),
/// at the first row from `start` (wrapping around) that admits it. The
/// edit keeps ptr monotone and, except for kSelfLoop, |adj| unchanged,
/// so the graph still constructs. Returns false when no row admits the
/// edit.
inline bool mutate_from(CsrMutation m, std::vector<eid_t>& ptr,
                        std::vector<vid_t>& adj, vid_t universe,
                        std::size_t start, Xoshiro256& rng) {
  const std::size_t rows = ptr.size() - 1;
  if (m == CsrMutation::kPtrStart) {
    if (rows == 0 || ptr[1] == 0) return false;
    ptr[0] = 1;
    return true;
  }
  for (std::size_t k = 0; k < rows; ++k) {
    const std::size_t r = (start + k) % rows;
    const auto lo = static_cast<std::size_t>(ptr[r]);
    const auto hi = static_cast<std::size_t>(ptr[r + 1]);
    const std::size_t deg = hi - lo;
    const auto row = static_cast<vid_t>(r);
    switch (m) {
      case CsrMutation::kOutOfRange:
        if (deg == 0) continue;
        adj[lo + rng.bounded(deg)] = (rng() & 1) ? universe : vid_t{-1};
        return true;
      case CsrMutation::kDuplicate:
      case CsrMutation::kSwappedPair: {
        if (deg < 2) continue;
        const std::size_t i = lo + 1 + rng.bounded(deg - 1);
        if (m == CsrMutation::kDuplicate)
          adj[i] = adj[i - 1];
        else
          std::swap(adj[i - 1], adj[i]);
        return true;
      }
      case CsrMutation::kOneSided:
        // Not row itself, so a unipartite edit stays loop-free.
        if (deg == 0 || adj[hi - 1] >= universe - 1 || row == universe - 1)
          continue;
        adj[hi - 1] = universe - 1;
        return true;
      case CsrMutation::kMovedEntry:
        if (deg == 0 || r + 1 == rows) continue;
        --ptr[r + 1];
        return true;
      case CsrMutation::kSelfLoop: {
        // An inserted loop is its own transpose: symmetry still holds,
        // so only the loop check can catch it.
        if (row >= universe) continue;
        const auto pos =
            std::upper_bound(adj.begin() + static_cast<std::ptrdiff_t>(lo),
                             adj.begin() + static_cast<std::ptrdiff_t>(hi),
                             row);
        adj.insert(pos, row);
        for (std::size_t i = r + 1; i < ptr.size(); ++i) ++ptr[i];
        return true;
      }
      case CsrMutation::kPtrStart:
        break;
    }
  }
  return false;
}

/// mutate_from() at a random start row.
inline bool mutate(CsrMutation m, std::vector<eid_t>& ptr,
                   std::vector<vid_t>& adj, vid_t universe,
                   Xoshiro256& rng) {
  const std::size_t start =
      m == CsrMutation::kPtrStart ? 0 : rng.bounded(ptr.size() - 1);
  return mutate_from(m, ptr, adj, universe, start, rng);
}

}  // namespace gcol::testing
