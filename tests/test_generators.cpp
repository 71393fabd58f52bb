#include "greedcolor/graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "greedcolor/graph/builder.hpp"
#include "validate_oracle.hpp"

namespace gcol {
namespace {

TEST(Generators, Mesh2dInteriorDegreeIsExactWindow) {
  const Coo coo = gen_mesh2d(10, 10, 1);
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  // Interior node (5,5) -> id 55: 3x3 window including itself.
  EXPECT_EQ(g.net_degree(55), 9);
  // Corner (0,0): 2x2 window.
  EXPECT_EQ(g.net_degree(0), 4);
  EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                  g.nptr(), g.nadj()));
}

TEST(Generators, Mesh2dIsSymmetric) {
  Coo coo = gen_mesh2d(8, 6, 2);
  EXPECT_TRUE(coo.is_structurally_symmetric());
}

TEST(Generators, Mesh3dCrossStencilDegree) {
  const Coo coo = gen_mesh3d(5, 5, 5, 1, /*full_box=*/false);
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  // Interior point: 7-point stencil.
  const vid_t center = (2 * 5 + 2) * 5 + 2;
  EXPECT_EQ(g.net_degree(center), 7);
}

TEST(Generators, Mesh3dBoxStencilDegree) {
  const Coo coo = gen_mesh3d(5, 5, 5, 1, /*full_box=*/true);
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  const vid_t center = (2 * 5 + 2) * 5 + 2;
  EXPECT_EQ(g.net_degree(center), 27);
}

TEST(Generators, PowerLawBipartiteRespectsDims) {
  PowerLawBipartiteParams p;
  p.rows = 100;
  p.cols = 500;
  p.min_deg = 3;
  p.max_deg = 50;
  p.alpha = 1.5;
  p.seed = 7;
  const Coo coo = gen_powerlaw_bipartite(p);
  EXPECT_EQ(coo.num_rows, 100);
  EXPECT_EQ(coo.num_cols, 500);
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  EXPECT_GE(g.max_net_degree(), p.min_deg);
  EXPECT_LE(g.max_net_degree(), 50);
  for (vid_t v = 0; v < g.num_nets(); ++v)
    EXPECT_GE(g.net_degree(v), p.min_deg);
}

TEST(Generators, PowerLawDeterministicPerSeed) {
  PowerLawBipartiteParams p;
  p.rows = 50;
  p.cols = 200;
  p.seed = 11;
  const Coo a = gen_powerlaw_bipartite(p);
  const Coo b = gen_powerlaw_bipartite(p);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  p.seed = 12;
  const Coo c = gen_powerlaw_bipartite(p);
  EXPECT_TRUE(a.rows != c.rows || a.cols != c.cols);
}

TEST(Generators, CliqueUnionContainsItsCliques) {
  // One way to observe clique structure: max net degree >= min_clique.
  const Coo coo = gen_clique_union(200, 30, 4, 20, 2.0, 3);
  EXPECT_TRUE(coo.is_structurally_symmetric());
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  EXPECT_GE(g.max_net_degree(), 4);
  // Diagonal present: every vertex has at least its own entry.
  for (vid_t v = 0; v < g.num_nets(); ++v) EXPECT_GE(g.net_degree(v), 1);
}

TEST(Generators, PreferentialAttachmentShape) {
  const Coo coo = gen_preferential_attachment(500, 3, 21);
  EXPECT_TRUE(coo.is_structurally_symmetric());
  const Graph g = build_graph(std::move(Coo(coo)));
  EXPECT_EQ(g.num_vertices(), 500);
  // Power-law-ish: the max degree should far exceed the mean (~6).
  EXPECT_GT(g.max_degree(), 20);
}

TEST(Generators, KktHasSaddleStructure) {
  const Coo coo = gen_kkt(6, 6, 6, 100, 5, 17);
  EXPECT_EQ(coo.num_rows, 6 * 6 * 6 + 100);
  EXPECT_TRUE(coo.is_structurally_symmetric());
}

TEST(Generators, BlockRowsDegreeConcentration) {
  const Coo coo = gen_block_rows(300, 40, 100, 0.25, 5);
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  // Row degrees concentrate near 40 (dedup can remove a few).
  for (vid_t v = 0; v < g.num_nets(); ++v) {
    EXPECT_GE(g.net_degree(v), 25);
    EXPECT_LE(g.net_degree(v), 40);
  }
}

TEST(Generators, RandomBipartiteExactNnz) {
  const Coo coo = gen_random_bipartite(40, 60, 500, 9);
  EXPECT_EQ(coo.nnz(), 500);
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  EXPECT_EQ(g.num_edges(), 500);  // entries were distinct
}

TEST(Generators, RandomBipartiteRejectsOverfull) {
  EXPECT_THROW(gen_random_bipartite(3, 3, 10, 1), std::invalid_argument);
}

TEST(Generators, RandomGeometricAdjacencyMatchesRadius) {
  // With grid bucketing, verify against the O(n^2) ground truth.
  const double radius = 0.15;
  const Coo coo = gen_random_geometric(150, radius, 33);
  EXPECT_TRUE(coo.is_structurally_symmetric());
  // Each vertex has a diagonal entry.
  const BipartiteGraph g = build_bipartite(std::move(Coo(coo)));
  for (vid_t v = 0; v < g.num_nets(); ++v) EXPECT_GE(g.net_degree(v), 1);
}

TEST(Generators, ParameterValidation) {
  EXPECT_THROW(gen_mesh2d(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(gen_mesh3d(2, 2, 2, 0), std::invalid_argument);
  EXPECT_THROW(gen_clique_union(10, 5, 1, 0, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(gen_preferential_attachment(3, 5, 1), std::invalid_argument);
  EXPECT_THROW(gen_block_rows(10, 5, 2, 0.2, 1), std::invalid_argument);
  EXPECT_THROW(gen_random_geometric(0, 0.1, 1), std::invalid_argument);
  PowerLawBipartiteParams bad;
  bad.rows = 0;
  EXPECT_THROW(gen_powerlaw_bipartite(bad), std::invalid_argument);
}

}  // namespace
}  // namespace gcol
