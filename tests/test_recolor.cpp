#include "greedcolor/core/recolor.hpp"

#include "greedcolor/core/color_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/robust/error.hpp"
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

/// First-fit over the classes in `class_ids`' order, each class in id
/// order.
ColoringResult by_classes(const BipartiteGraph& g, const ColorSchedule& s,
                          const std::vector<color_t>& class_ids) {
  std::vector<vid_t> order;
  for (const color_t c : class_ids)
    for (const vid_t v : s.class_members(c)) order.push_back(v);
  return color_bgpc_sequential(g, order);
}

// Culberson's guarantee holds for any order that keeps each color class
// contiguous, not only the pass's: the classes reversed, shuffled, and
// biggest first.
TEST(RecolorVariants, AllOrdersPreserveValidityAndNeverGrow) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(900, 380, 2, 45, 1.8, 51));
  const auto base = color_bgpc(g, bgpc_preset("N1-N2"));
  ASSERT_TRUE(is_valid_bgpc(g, base.colors));
  const ColorSchedule s = ColorSchedule::build(base.colors);
  std::vector<color_t> reversed(static_cast<std::size_t>(s.num_classes()));
  std::iota(reversed.rbegin(), reversed.rend(), color_t{0});
  std::vector<color_t> shuffled = reversed;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  std::vector<color_t> biggest = reversed;
  std::stable_sort(biggest.begin(), biggest.end(), [&](color_t a, color_t b) {
    return s.class_size(a) > s.class_size(b);
  });
  for (const auto& class_ids : {reversed, shuffled, biggest}) {
    const ColoringResult r = by_classes(g, s, class_ids);
    EXPECT_LE(r.num_colors, base.num_colors);
    EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  }
}

// The pass is first-fit over a stable sort by descending color: whole
// classes, largest color first, ids ascending within a class, and the
// uncolored vertices last.
TEST(RecolorVariants, ReverseColorsMatchesDefaultPass) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(900, 380, 2, 45, 1.8, 51));
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 4;
  auto colors = color_bgpc(g, opt).colors;
  colors[17] = kNoColor;
  std::vector<vid_t> order(colors.size());
  std::iota(order.begin(), order.end(), vid_t{0});
  std::stable_sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    return colors[static_cast<std::size_t>(a)] >
           colors[static_cast<std::size_t>(b)];
  });
  const ColoringResult expected = color_bgpc_sequential(g, order);
  EXPECT_EQ(recolor_bgpc(g, colors), expected.num_colors);
  EXPECT_EQ(colors, expected.colors);
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

/// `call` throws Error(kInvalidArgument) naming `entry`.
template <class Call>
void expect_invalid_argument(Call&& call, const std::string& entry) {
  try {
    call();
    ADD_FAILURE() << entry << " accepted a bad color array";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find(entry), std::string::npos)
        << e.what();
  }
}

TEST(RecolorInput, ColorBelowNoColorIsATypedError) {
  const BipartiteGraph bg = testing::single_net(4);
  std::vector<color_t> colors = {0, 1, -7, 2};
  expect_invalid_argument([&] { recolor_bgpc(bg, colors); }, "recolor_bgpc");
  const Graph g = build_graph(testing::path_coo(4));
  expect_invalid_argument([&] { recolor_d2gc(g, colors); }, "recolor_d2gc");
}

TEST(RecolorInput, SizeMismatchIsATypedError) {
  const BipartiteGraph bg = testing::single_net(4);
  std::vector<color_t> colors = {0, 1, 2};
  expect_invalid_argument([&] { recolor_bgpc(bg, colors); }, "recolor_bgpc");
  const Graph g = build_graph(testing::path_coo(4));
  expect_invalid_argument([&] { recolor_d2gc(g, colors); }, "recolor_d2gc");
}

// A color near INT_MAX groups in O(n) memory and recolors exactly like
// the same order with small colors.
TEST(RecolorInput, HugeColorsRecolorLikeTheirRanks) {
  const BipartiteGraph g = testing::single_net(4);
  std::vector<color_t> huge = {std::numeric_limits<color_t>::max() - 1, 0,
                               1, 2};
  std::vector<color_t> ranked = {4, 0, 1, 2};
  EXPECT_EQ(recolor_bgpc(g, huge), 4);
  EXPECT_EQ(recolor_bgpc(g, ranked), 4);
  EXPECT_EQ(huge, ranked);
  EXPECT_TRUE(is_valid_bgpc(g, huge));
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
