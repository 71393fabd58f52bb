#include <gtest/gtest.h>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "test_util.hpp"
#include "validate_oracle.hpp"

namespace gcol {
namespace {

TEST(Transpose, SwapsSidesExactly) {
  Coo coo;
  coo.num_rows = 2;
  coo.num_cols = 3;
  coo.add(0, 0);
  coo.add(0, 2);
  coo.add(1, 1);
  const BipartiteGraph g = build_bipartite(std::move(coo));
  const BipartiteGraph t = transpose(g);
  EXPECT_EQ(t.num_vertices(), g.num_nets());
  EXPECT_EQ(t.num_nets(), g.num_vertices());
  EXPECT_EQ(t.num_edges(), g.num_edges());
  EXPECT_TRUE(testing::oracle_is_strict_transpose(t.vptr(), t.vadj(),
                                                  t.nptr(), t.nadj()));
  // nets(u) in the transpose are vtxs(u) in the original.
  const auto tn = t.nets(0);
  const auto gv = g.vtxs(0);
  EXPECT_EQ(std::vector<vid_t>(tn.begin(), tn.end()),
            std::vector<vid_t>(gv.begin(), gv.end()));
}

TEST(Transpose, DoubleTransposeIsIdentity) {
  PowerLawBipartiteParams p;
  p.rows = 40;
  p.cols = 90;
  p.seed = 3;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));
  const BipartiteGraph tt = transpose(transpose(g));
  EXPECT_EQ(tt.vptr(), g.vptr());
  EXPECT_EQ(tt.vadj(), g.vadj());
  EXPECT_EQ(tt.nptr(), g.nptr());
  EXPECT_EQ(tt.nadj(), g.nadj());
}

TEST(Transpose, RowColoringIsValidOnTranspose) {
  // Coloring rows of A == coloring columns of Aᵀ: run the engine on
  // the transpose and verify against it.
  PowerLawBipartiteParams p;
  p.rows = 120;
  p.cols = 300;
  p.min_deg = 2;
  p.max_deg = 50;
  p.seed = 6;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));
  const BipartiteGraph t = transpose(g);
  const auto r = color_bgpc(t, bgpc_preset("N1-N2"));
  EXPECT_TRUE(is_valid_bgpc(t, r.colors));
  EXPECT_EQ(r.colors.size(), static_cast<std::size_t>(g.num_nets()));
  // Lower bound flips to the max *column* degree of the original.
  EXPECT_GE(r.num_colors, g.max_vertex_degree());
}

TEST(Transpose, SymmetricInstanceSameColorCountSequentially) {
  // A structurally symmetric matrix has identical row and column
  // coloring problems.
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(400, 160, 2, 30, 1.8, 4));
  const auto cols = color_bgpc_sequential(g);
  const auto rows = color_bgpc_sequential(transpose(g));
  EXPECT_EQ(cols.num_colors, rows.num_colors);
  EXPECT_EQ(cols.colors, rows.colors);
}

}  // namespace
}  // namespace gcol
