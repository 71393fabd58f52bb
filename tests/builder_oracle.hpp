// The comparison-sort COO -> CSR builder that the counting-sort builder
// replaced, kept only as the reference for differential tests: sort an
// index permutation by (row, col), drop repeats, scatter each side and
// sort every list again. Inputs must already be in range.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "greedcolor/graph/coo.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::testing {

struct ReferenceCsr {
  std::vector<eid_t> ptr;
  std::vector<vid_t> adj;
};

/// Sort the (rows[i], cols[i]) pairs and drop repeats.
inline void reference_sort_and_dedup(std::vector<vid_t>& rows,
                                     std::vector<vid_t>& cols) {
  std::vector<std::size_t> perm(rows.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(rows[a], cols[a]) < std::tie(rows[b], cols[b]);
  });
  std::vector<vid_t> r2, c2;
  for (const std::size_t i : perm) {
    if (!r2.empty() && r2.back() == rows[i] && c2.back() == cols[i]) continue;
    r2.push_back(rows[i]);
    c2.push_back(cols[i]);
  }
  rows = std::move(r2);
  cols = std::move(c2);
}

/// One direction of a pattern: list k holds values[i] for keys[i] == k,
/// sorted.
inline ReferenceCsr reference_csr_side(vid_t num_keys,
                                       const std::vector<vid_t>& keys,
                                       const std::vector<vid_t>& values) {
  ReferenceCsr out;
  out.ptr.assign(static_cast<std::size_t>(num_keys) + 1, 0);
  for (const vid_t k : keys) ++out.ptr[static_cast<std::size_t>(k) + 1];
  for (std::size_t i = 1; i < out.ptr.size(); ++i)
    out.ptr[i] += out.ptr[i - 1];
  out.adj.resize(keys.size());
  std::vector<eid_t> cursor(out.ptr.begin(), out.ptr.end() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i)
    out.adj[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(keys[i])]++)] = values[i];
  for (std::size_t k = 0; k + 1 < out.ptr.size(); ++k)
    std::sort(out.adj.begin() + static_cast<std::ptrdiff_t>(out.ptr[k]),
              out.adj.begin() + static_cast<std::ptrdiff_t>(out.ptr[k + 1]));
  return out;
}

struct ReferenceBipartite {
  ReferenceCsr vtx;  ///< vptr / vadj: the nets of each column
  ReferenceCsr net;  ///< nptr / nadj: the columns of each row
};

/// What build_bipartite() must produce for `coo`.
inline ReferenceBipartite reference_build_bipartite(Coo coo) {
  reference_sort_and_dedup(coo.rows, coo.cols);
  return {reference_csr_side(coo.num_cols, coo.cols, coo.rows),
          reference_csr_side(coo.num_rows, coo.rows, coo.cols)};
}

/// What build_graph() must produce for the square `coo`: symmetrize,
/// sort and dedup, drop the diagonal.
inline ReferenceCsr reference_build_graph(Coo coo) {
  const std::size_t n = coo.rows.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (coo.rows[i] == coo.cols[i]) continue;
    coo.rows.push_back(coo.cols[i]);
    coo.cols.push_back(coo.rows[i]);
  }
  reference_sort_and_dedup(coo.rows, coo.cols);
  std::vector<vid_t> rows, cols;
  for (std::size_t i = 0; i < coo.rows.size(); ++i) {
    if (coo.rows[i] == coo.cols[i]) continue;
    rows.push_back(coo.rows[i]);
    cols.push_back(coo.cols[i]);
  }
  return reference_csr_side(coo.num_rows, rows, cols);
}

}  // namespace gcol::testing
