#include "greedcolor/graph/coo.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "csr_build.hpp"
#include "csr_check.hpp"

namespace gcol {

void Coo::sort_and_dedup() {
  detail::check_coo(*this, "Coo::sort_and_dedup");
  // Two stable counting passes, by column and then by row, leave equal
  // coordinates adjacent in input order, so the first one is kept.
  std::vector<std::size_t> by_col(rows.size());
  detail::counting_sort(
      num_cols,
      [&](const auto& visit) {
        for (std::size_t i = 0; i < cols.size(); ++i) visit(cols[i], i);
      },
      [&](eid_t slot, std::size_t i) {
        by_col[static_cast<std::size_t>(slot)] = i;
      });
  std::vector<std::size_t> order(rows.size());
  detail::counting_sort(
      num_rows,
      [&](const auto& visit) {
        for (const std::size_t i : by_col) visit(rows[i], i);
      },
      [&](eid_t slot, std::size_t i) {
        order[static_cast<std::size_t>(slot)] = i;
      });

  std::vector<vid_t> r2, c2;
  std::vector<double> v2;
  r2.reserve(order.size());
  c2.reserve(order.size());
  if (has_values()) v2.reserve(order.size());
  for (const std::size_t i : order) {
    if (!r2.empty() && r2.back() == rows[i] && c2.back() == cols[i]) continue;
    r2.push_back(rows[i]);
    c2.push_back(cols[i]);
    if (has_values()) v2.push_back(vals[i]);
  }
  rows = std::move(r2);
  cols = std::move(c2);
  vals = std::move(v2);
}

bool Coo::is_structurally_symmetric() const {
  if (num_rows != num_cols) return false;
  detail::check_coo(*this, "Coo::is_structurally_symmetric");
  const detail::CsrLists lists = detail::sorted_rows(*this);
  return detail::is_strict_transpose(lists.ptr, lists.adj, lists.ptr,
                                     lists.adj, false);
}

void Coo::symmetrize() {
  if (num_rows != num_cols)
    throw std::invalid_argument("Coo::symmetrize: pattern must be square");
  const bool keep_vals = has_values();
  const std::size_t n = rows.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (rows[i] == cols[i]) continue;
    rows.push_back(cols[i]);
    cols.push_back(rows[i]);
    if (keep_vals) vals.push_back(vals[i]);
  }
  sort_and_dedup();
}

}  // namespace gcol
