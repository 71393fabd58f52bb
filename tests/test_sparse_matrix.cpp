#include "greedcolor/graph/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/util/prng.hpp"

namespace gcol {
namespace {

Coo small_matrix() {
  // [ 1 0 2 ]
  // [ 0 3 0 ]
  Coo coo;
  coo.num_rows = 2;
  coo.num_cols = 3;
  coo.add(0, 0, 1.0);
  coo.add(0, 2, 2.0);
  coo.add(1, 1, 3.0);
  return coo;
}

TEST(CsrMatrix, BuildAndAccess) {
  const CsrMatrix a = CsrMatrix::from_coo(small_matrix());
  EXPECT_EQ(a.num_rows(), 2);
  EXPECT_EQ(a.num_cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  const auto idx = a.row_indices(0);
  const auto val = a.row_values(0);
  EXPECT_EQ(std::vector<vid_t>(idx.begin(), idx.end()),
            (std::vector<vid_t>{0, 2}));
  EXPECT_DOUBLE_EQ(val[1], 2.0);
}

TEST(CsrMatrix, PatternOnlyGetsUnitValues) {
  Coo coo;
  coo.num_rows = coo.num_cols = 2;
  coo.add(0, 1);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  EXPECT_DOUBLE_EQ(a.row_values(0)[0], 1.0);
}

TEST(CsrMatrix, Multiply) {
  const CsrMatrix a = CsrMatrix::from_coo(small_matrix());
  std::vector<double> y;
  a.multiply(std::vector<double>{1.0, 1.0, 1.0}, y);
  EXPECT_EQ(y, (std::vector<double>{3.0, 3.0}));
  EXPECT_THROW(a.multiply(std::vector<double>{1.0}, y),
               std::invalid_argument);
}

TEST(CsrMatrix, MultiplyTranspose) {
  const CsrMatrix a = CsrMatrix::from_coo(small_matrix());
  std::vector<double> y;
  a.multiply_transpose(std::vector<double>{1.0, 2.0}, y);
  EXPECT_EQ(y, (std::vector<double>{1.0, 6.0, 2.0}));
}

TEST(CsrMatrix, CooRoundTrip) {
  const CsrMatrix a = CsrMatrix::from_coo(small_matrix());
  const Coo back = a.to_coo();
  EXPECT_EQ(back.nnz(), 3);
  EXPECT_EQ(back.rows, (std::vector<vid_t>{0, 0, 1}));
  EXPECT_EQ(back.vals, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(CscMatrix, BuildAndColumnAccess) {
  const CscMatrix a = CscMatrix::from_coo(small_matrix());
  const auto c2 = a.col_indices(2);
  EXPECT_EQ(std::vector<vid_t>(c2.begin(), c2.end()),
            (std::vector<vid_t>{0}));
  EXPECT_DOUBLE_EQ(a.col_values(2)[0], 2.0);
  EXPECT_DOUBLE_EQ(a.column_sqnorm(2), 4.0);
  EXPECT_DOUBLE_EQ(a.column_sqnorm(1), 9.0);
}

TEST(CscMatrix, MultiplyMatchesCsr) {
  Xoshiro256 rng(3);
  Coo coo = gen_random_bipartite(50, 70, 400, 4);
  coo.vals.resize(coo.rows.size());
  for (auto& v : coo.vals) v = rng.uniform();
  const CsrMatrix ar = CsrMatrix::from_coo(coo);
  const CscMatrix ac = CscMatrix::from_coo(coo);
  std::vector<double> x(70);
  for (auto& v : x) v = rng.uniform() - 0.5;
  std::vector<double> y1, y2;
  ar.multiply(x, y1);
  ac.multiply(x, y2);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(SparseMatrix, OutOfBoundsEntryThrows) {
  Coo coo;
  coo.num_rows = coo.num_cols = 2;
  coo.add(0, 3, 1.0);
  EXPECT_THROW(CsrMatrix::from_coo(std::move(coo)), std::out_of_range);
}

TEST(SparseMatrix, InconsistentLengthsThrow) {
  // Lengths are checked before any id is read: 100000 rows and 1 col.
  Coo coo;
  coo.num_rows = coo.num_cols = 4;
  coo.rows.assign(100000, 0);
  coo.cols.assign(1, 0);
  EXPECT_THROW(CsrMatrix::from_coo(coo), std::invalid_argument);
  EXPECT_THROW(CscMatrix::from_coo(coo), std::invalid_argument);
  coo.cols.assign(100000, 0);
  coo.vals.assign(3, 1.0);
  EXPECT_THROW(CsrMatrix::from_coo(coo), std::invalid_argument);
  EXPECT_THROW(CscMatrix::from_coo(coo), std::invalid_argument);
}

TEST(Compression, ExactRecoveryWithValidColoring) {
  Xoshiro256 rng(8);
  Coo coo = gen_random_bipartite(60, 90, 420, 6);
  coo.vals.resize(coo.rows.size());
  for (auto& v : coo.vals) v = 1.0 + rng.uniform();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const BipartiteGraph g = build_bipartite(coo);
  const auto r = color_bgpc(g, bgpc_preset("N1-N2"));
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));
  const auto b = compress_columns(a, r.colors, r.num_colors);
  EXPECT_EQ(b.size(), static_cast<std::size_t>(a.num_rows()) *
                          static_cast<std::size_t>(r.num_colors));
  EXPECT_DOUBLE_EQ(recovery_error(a, r.colors, r.num_colors, b), 0.0);
}

TEST(Compression, InvalidColoringLosesInformation) {
  // All columns one color: any row with 2+ nonzeros collides.
  Coo coo;
  coo.num_rows = 1;
  coo.num_cols = 2;
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  const std::vector<color_t> bogus = {0, 0};
  const auto b = compress_columns(a, bogus, 1);
  EXPECT_GT(recovery_error(a, bogus, 1, b), 0.5);
}

TEST(Compression, RejectsBadArguments) {
  const CsrMatrix a = CsrMatrix::from_coo(small_matrix());
  EXPECT_THROW(compress_columns(a, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(compress_columns(a, {0, 1, 5}, 2), std::out_of_range);
}

}  // namespace
}  // namespace gcol
