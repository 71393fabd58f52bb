#include "greedcolor/core/recolor.hpp"

#include "greedcolor/core/color_stats.hpp"

#include <gtest/gtest.h>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

TEST(Recolor, NeverIncreasesBgpcColors) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(800, 350, 2, 50, 1.8, 41));
  auto r = color_bgpc(g, bgpc_preset("N1-N2"));
  const color_t before = r.num_colors;
  const color_t after = recolor_bgpc(g, r.colors);
  EXPECT_LE(after, before);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  EXPECT_EQ(after, count_colors(r.colors));
}

TEST(Recolor, FixpointConvergesAndIsValid) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(700, 300, 2, 40, 1.7, 43));
  auto r = color_bgpc(g, bgpc_preset("N2-N2"));
  const color_t before = r.num_colors;
  const color_t after = recolor_bgpc_to_fixpoint(g, r.colors);
  EXPECT_LE(after, before);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
}

TEST(Recolor, ImprovesAnInflatedColoring) {
  // Hand the recolorer a deliberately wasteful coloring: every vertex
  // its own color in a two-net instance.
  const BipartiteGraph g = testing::disjoint_nets(2, 4);
  std::vector<color_t> colors = {0, 1, 2, 3, 4, 5, 6, 7};
  const color_t after = recolor_bgpc(g, colors);
  EXPECT_EQ(after, 4);  // disjoint nets reuse colors
  EXPECT_TRUE(is_valid_bgpc(g, colors));
}

TEST(Recolor, D2gcVariantIsValidAndMonotone) {
  const Graph g = build_graph(gen_random_geometric(500, 0.07, 47));
  auto r = color_d2gc(g, d2gc_preset("N1-N2"));
  const color_t before = r.num_colors;
  const color_t after = recolor_d2gc(g, r.colors);
  EXPECT_LE(after, before);
  EXPECT_TRUE(is_valid_d2gc(g, r.colors));
}

TEST(Recolor, StableAtOptimalColoring) {
  const BipartiteGraph g = testing::single_net(5);
  std::vector<color_t> colors = {0, 1, 2, 3, 4};
  EXPECT_EQ(recolor_bgpc(g, colors), 5);
  EXPECT_TRUE(is_valid_bgpc(g, colors));
}

TEST(RecolorVariants, AllOrdersPreserveValidityAndNeverGrow) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(900, 380, 2, 45, 1.8, 51));
  const auto base = color_bgpc(g, bgpc_preset("N1-N2"));
  ASSERT_TRUE(is_valid_bgpc(g, base.colors));
  for (const auto order :
       {RecolorOrder::kReverseColors, RecolorOrder::kRandomClasses,
        RecolorOrder::kDecreasingSize}) {
    auto colors = base.colors;
    const color_t after = recolor_bgpc_with(g, colors, order, 7);
    EXPECT_LE(after, base.num_colors);
    EXPECT_TRUE(is_valid_bgpc(g, colors));
  }
}

TEST(RecolorVariants, ReverseColorsMatchesDefaultPass) {
  const BipartiteGraph g = testing::disjoint_nets(4, 3);
  auto a = color_bgpc_sequential(g).colors;
  auto b = a;
  recolor_bgpc(g, a);
  recolor_bgpc_with(g, b, RecolorOrder::kReverseColors);
  EXPECT_EQ(a, b);
}

// D2GC on G is BGPC on G's closed-neighborhood hypergraph, and the two
// passes share one first-fit loop: they must agree array for array.
TEST(RecolorVariants, D2gcMatchesBgpcOnClosedNeighborhoods) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = build_graph(gen_preferential_attachment(400, 3, seed));
    ColoringOptions opt = d2gc_preset("N1-N2");
    opt.num_threads = 4;
    auto a = color_d2gc(g, opt).colors;
    auto b = a;
    recolor_d2gc(g, a);
    recolor_bgpc(graph_to_bipartite_closed(g), b);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_TRUE(is_valid_d2gc(g, a)) << "seed " << seed;
  }
}

TEST(BalancedRecolor, ImprovesBalanceWithoutMoreColors) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(1500, 600, 2, 70, 1.7, 53));
  auto r = color_bgpc(g, bgpc_preset("V-N2"));
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));
  const double sd_before = color_class_stats(r.colors).stddev;
  const color_t before = r.num_colors;
  const color_t after = balanced_recolor_bgpc(g, r.colors);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  EXPECT_LE(after, before);
  EXPECT_LT(color_class_stats(r.colors).stddev, sd_before);
}

TEST(BalancedRecolor, PreservesCountsOnTinyInstances) {
  const BipartiteGraph g = testing::single_net(4);
  std::vector<color_t> colors = {0, 1, 2, 3};
  EXPECT_EQ(balanced_recolor_bgpc(g, colors), 4);
  EXPECT_TRUE(is_valid_bgpc(g, colors));
}

}  // namespace
}  // namespace gcol
