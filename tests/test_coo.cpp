#include "greedcolor/graph/coo.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

namespace gcol {
namespace {

TEST(Coo, SortAndDedupOrdersByRowThenCol) {
  Coo coo;
  coo.num_rows = coo.num_cols = 3;
  coo.add(2, 1);
  coo.add(0, 2);
  coo.add(0, 1);
  coo.add(2, 1);  // duplicate
  coo.sort_and_dedup();
  ASSERT_EQ(coo.nnz(), 3);
  EXPECT_EQ(coo.rows, (std::vector<vid_t>{0, 0, 2}));
  EXPECT_EQ(coo.cols, (std::vector<vid_t>{1, 2, 1}));
}

TEST(Coo, DedupKeepsFirstValue) {
  Coo coo;
  coo.num_rows = coo.num_cols = 2;
  coo.add(0, 0, 1.5);
  coo.add(0, 0, 9.9);
  coo.sort_and_dedup();
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_DOUBLE_EQ(coo.vals[0], 1.5);

  // Past 16 entries an unstable sort reorders equal keys.
  for (const int copies : {17, 1000}) {
    Coo many;
    many.num_rows = many.num_cols = 2;
    for (int k = 0; k < copies; ++k) {
      many.add(1, 1, 100.0 + k);
      many.add(0, 0, k);
    }
    many.sort_and_dedup();
    ASSERT_EQ(many.nnz(), 2) << copies;
    EXPECT_DOUBLE_EQ(many.vals[0], 0.0) << copies;
    EXPECT_DOUBLE_EQ(many.vals[1], 100.0) << copies;
  }
}

TEST(Coo, SortAndDedupRejectsMalformedInput) {
  Coo lengths;
  lengths.num_rows = lengths.num_cols = 2;
  lengths.add(0, 1);
  lengths.rows.push_back(1);
  EXPECT_THROW(lengths.sort_and_dedup(), std::invalid_argument);

  Coo values;
  values.num_rows = values.num_cols = 2;
  values.add(0, 1, 1.0);
  values.add(1, 0);
  EXPECT_THROW(values.sort_and_dedup(), std::invalid_argument);

  Coo range;
  range.num_rows = range.num_cols = 2;
  range.add(0, 2);
  EXPECT_THROW(range.sort_and_dedup(), std::out_of_range);
  range.cols[0] = -1;
  EXPECT_THROW(range.sort_and_dedup(), std::out_of_range);
}

TEST(Coo, SymmetryDetection) {
  Coo sym;
  sym.num_rows = sym.num_cols = 3;
  sym.add(0, 1);
  sym.add(1, 0);
  sym.add(2, 2);
  EXPECT_TRUE(sym.is_structurally_symmetric());

  Coo asym;
  asym.num_rows = asym.num_cols = 3;
  asym.add(0, 1);
  EXPECT_FALSE(asym.is_structurally_symmetric());

  // Repeats and the diagonal do not count against symmetry.
  Coo repeated;
  repeated.num_rows = repeated.num_cols = 4;
  for (const auto& [r, c] : {std::pair{1, 1}, {2, 0}, {1, 1}, {0, 2},
                            {2, 0}, {3, 3}, {3, 3}, {0, 0}})
    repeated.add(r, c);
  EXPECT_TRUE(repeated.is_structurally_symmetric());
  // ...nor make up for a missing counterpart.
  repeated.add(1, 3);
  repeated.add(1, 3);
  EXPECT_FALSE(repeated.is_structurally_symmetric());
  repeated.add(3, 1);
  EXPECT_TRUE(repeated.is_structurally_symmetric());

  Coo rect;
  rect.num_rows = 2;
  rect.num_cols = 3;
  EXPECT_FALSE(rect.is_structurally_symmetric());
}

TEST(Coo, SymmetrizeAddsMissingTransposes) {
  Coo coo;
  coo.num_rows = coo.num_cols = 3;
  coo.add(0, 1);
  coo.add(1, 2);
  coo.add(2, 1);  // already mutual with (1,2)
  coo.symmetrize();
  EXPECT_TRUE(coo.is_structurally_symmetric());
  EXPECT_EQ(coo.nnz(), 4);  // (0,1),(1,0),(1,2),(2,1)
}

TEST(Coo, SymmetrizeRejectsRectangular) {
  Coo coo;
  coo.num_rows = 2;
  coo.num_cols = 3;
  EXPECT_THROW(coo.symmetrize(), std::invalid_argument);
}

TEST(Coo, SymmetrizeKeepsValues) {
  Coo coo;
  coo.num_rows = coo.num_cols = 2;
  coo.add(0, 1, 3.0);
  coo.symmetrize();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.vals[0], 3.0);
  EXPECT_DOUBLE_EQ(coo.vals[1], 3.0);
}

TEST(Coo, EmptyPatternIsFine) {
  Coo coo;
  coo.num_rows = coo.num_cols = 4;
  coo.sort_and_dedup();
  EXPECT_EQ(coo.nnz(), 0);
  EXPECT_TRUE(coo.is_structurally_symmetric());
}

}  // namespace
}  // namespace gcol
