// Linear-time COO -> CSR construction shared by the builders, Coo and
// the sparse matrices: one stable counting sort, and the transpose,
// dedup and input checks built on it. No comparison sort anywhere.
#pragma once

#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "greedcolor/graph/coo.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::detail {

/// One CSR half: list k is adj[ptr[k], ptr[k+1]).
struct CsrLists {
  std::vector<eid_t> ptr;
  std::vector<vid_t> adj;
};

/// Stable counting sort. `for_each(visit)` calls `visit(key, payload)`
/// once per entry, with every key in [0, num_keys), and must visit the
/// same entries in the same order each time (it runs twice: count, then
/// scatter). Returns the bucket offsets and hands each payload to
/// `place(slot, payload)`, where the payloads of key k take slots
/// [ptr[k], ptr[k+1]) in input order.
template <class ForEach, class Place>
std::vector<eid_t> counting_sort(vid_t num_keys, const ForEach& for_each,
                                 const Place& place) {
  std::vector<eid_t> ptr(static_cast<std::size_t>(num_keys) + 1, 0);
  for_each([&](vid_t key, const auto&) {
    ++ptr[static_cast<std::size_t>(key) + 1];
  });
  std::partial_sum(ptr.begin(), ptr.end(), ptr.begin());
  std::vector<eid_t> cursor(ptr.begin(), ptr.end() - 1);
  for_each([&](vid_t key, const auto& payload) {
    place(cursor[static_cast<std::size_t>(key)]++, payload);
  });
  return ptr;
}

/// counting_sort() into a CSR whose adjacency is the vid_t payload;
/// `for_each` visits at most `max_entries` entries.
template <class ForEach>
CsrLists bucket(vid_t num_keys, eid_t max_entries, const ForEach& for_each) {
  CsrLists out;
  out.adj.resize(static_cast<std::size_t>(max_entries));
  out.ptr = counting_sort(num_keys, for_each, [&](eid_t slot, vid_t v) {
    out.adj[static_cast<std::size_t>(slot)] = v;
  });
  out.adj.resize(static_cast<std::size_t>(out.ptr.back()));
  return out;
}

/// Transpose of `in`, whose ids lie in [0, num_cols). Lists are swept in
/// ascending order, so every list of the result comes out ascending.
inline CsrLists transpose(const CsrLists& in, vid_t num_cols) {
  return bucket(num_cols, static_cast<eid_t>(in.adj.size()),
                [&](const auto& visit) {
                  for (std::size_t r = 0; r + 1 < in.ptr.size(); ++r)
                    for (auto e = static_cast<std::size_t>(in.ptr[r]);
                         e < static_cast<std::size_t>(in.ptr[r + 1]); ++e)
                      visit(in.adj[e], static_cast<vid_t>(r));
                });
}

/// Drop repeats inside each list, in place. Each list must be sorted, so
/// repeats are adjacent.
inline void dedup_sorted(CsrLists& lists) {
  std::size_t out = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r + 1 < lists.ptr.size(); ++r) {
    const auto end = static_cast<std::size_t>(lists.ptr[r + 1]);
    for (std::size_t e = begin; e < end; ++e)
      if (e == begin || lists.adj[e] != lists.adj[e - 1])
        lists.adj[out++] = lists.adj[e];
    begin = end;
    lists.ptr[r + 1] = static_cast<eid_t>(out);
  }
  lists.adj.resize(out);
  lists.adj.shrink_to_fit();
}

/// The rows of `coo` as sorted lists of distinct columns: bucket the rows
/// by column, then transpose, so each row's columns come out ascending.
inline CsrLists sorted_rows(const Coo& coo) {
  const CsrLists by_col =
      bucket(coo.num_cols, coo.nnz(), [&](const auto& visit) {
        for (std::size_t i = 0; i < coo.rows.size(); ++i)
          visit(coo.cols[i], coo.rows[i]);
      });
  CsrLists rows = transpose(by_col, coo.num_rows);
  dedup_sorted(rows);
  return rows;
}

/// The input gate in front of every counting sort over a COO: dimensions
/// and array lengths first (std::invalid_argument), then every id against
/// the dimensions (std::out_of_range). `who` prefixes the message.
inline void check_coo(const Coo& coo, const char* who) {
  const std::size_t n = coo.rows.size();
  if (coo.num_rows < 0 || coo.num_cols < 0)
    throw std::invalid_argument(std::string(who) +
                                ": negative COO dimensions");
  if (coo.cols.size() != n || (coo.has_values() && coo.vals.size() != n))
    throw std::invalid_argument(std::string(who) +
                                ": inconsistent COO array lengths");
  for (std::size_t i = 0; i < n; ++i)
    if (coo.rows[i] < 0 || coo.rows[i] >= coo.num_rows || coo.cols[i] < 0 ||
        coo.cols[i] >= coo.num_cols)
      throw std::out_of_range(std::string(who) +
                              ": COO entry outside matrix bounds");
}

}  // namespace gcol::detail
