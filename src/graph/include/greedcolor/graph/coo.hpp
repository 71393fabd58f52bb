// Coordinate-format sparse pattern: the interchange format between the
// MatrixMarket reader, the synthetic generators, and the CSR builders.
#pragma once

#include <vector>

#include "greedcolor/util/types.hpp"

namespace gcol {

/// A sparse matrix pattern in coordinate (triplet) form. Rows play the
/// role of nets (V_B) and columns the role of vertices to color (V_A)
/// in the BGPC view. Values are optional and only carried for the
/// numerical examples (Jacobian compression); structural algorithms
/// ignore them.
struct Coo {
  vid_t num_rows = 0;
  vid_t num_cols = 0;
  std::vector<vid_t> rows;
  std::vector<vid_t> cols;
  std::vector<double> vals;  // empty for pattern-only matrices

  [[nodiscard]] eid_t nnz() const { return static_cast<eid_t>(rows.size()); }
  [[nodiscard]] bool has_values() const { return !vals.empty(); }

  void reserve(eid_t n) {
    rows.reserve(static_cast<std::size_t>(n));
    cols.reserve(static_cast<std::size_t>(n));
  }

  void add(vid_t r, vid_t c) {
    rows.push_back(r);
    cols.push_back(c);
  }

  void add(vid_t r, vid_t c, double v) {
    rows.push_back(r);
    cols.push_back(c);
    vals.push_back(v);
  }

  /// Sort entries by (row, col) and drop duplicate coordinates (keeping
  /// the first value). Generators may emit duplicates; CSR construction
  /// requires none. O(nnz + rows + cols). Throws std::invalid_argument on
  /// negative dimensions or inconsistent array lengths, and
  /// std::out_of_range on an entry outside the dimensions.
  void sort_and_dedup();

  /// True when every entry (r,c) has a counterpart (c,r); false for a
  /// non-square pattern. Used to select D2GC-eligible datasets (the paper
  /// runs D2GC only on structurally symmetric matrices). Throws like
  /// sort_and_dedup() on a malformed square pattern.
  [[nodiscard]] bool is_structurally_symmetric() const;

  /// Make the pattern structurally symmetric by adding missing
  /// transposed entries (square patterns only).
  void symmetrize();
};

}  // namespace gcol
