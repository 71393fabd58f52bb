// Parameterized validity sweep: every preset x several graph shapes x
// thread counts x orderings must produce a valid coloring within the
// structural bound, without tripping the sequential-fallback valve.
#include <gtest/gtest.h>

#include <tuple>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/order/ordering.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

BipartiteGraph make_test_graph(const std::string& shape) {
  if (shape == "mesh") return build_bipartite(gen_mesh2d(40, 40, 2));
  if (shape == "powerlaw") {
    PowerLawBipartiteParams p;
    p.rows = 300;
    p.cols = 1500;
    p.min_deg = 3;
    p.max_deg = 200;
    p.alpha = 1.1;
    p.seed = 77;
    return build_bipartite(gen_powerlaw_bipartite(p));
  }
  if (shape == "cliques")
    return build_bipartite(gen_clique_union(1200, 500, 2, 60, 1.8, 9));
  if (shape == "blockrows")
    return build_bipartite(gen_block_rows(600, 30, 90, 0.3, 2));
  throw std::invalid_argument(shape);
}

using Param = std::tuple<std::string /*algo*/, std::string /*shape*/,
                         int /*threads*/>;

class BgpcValidity : public ::testing::TestWithParam<Param> {};

TEST_P(BgpcValidity, ProducesValidBoundedColoring) {
  const auto& [algo, shape, threads] = GetParam();
  const BipartiteGraph g = make_test_graph(shape);
  ColoringOptions opt = bgpc_preset(algo);
  opt.num_threads = threads;
  const auto r = color_bgpc(g, opt);
  const auto violation = check_bgpc(g, r.colors);
  EXPECT_FALSE(violation.has_value())
      << (violation ? violation->to_string() : "");
  EXPECT_FALSE(r.sequential_fallback);
  EXPECT_LE(r.num_colors, bgpc_color_bound(g));
  EXPECT_GE(r.num_colors, g.max_net_degree());
  EXPECT_GE(r.rounds, 1);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsByShapeByThreads, BgpcValidity,
    ::testing::Combine(
        ::testing::Values("V-V", "V-V-64", "V-V-64D", "V-Ninf", "V-N1",
                          "V-N2", "N1-N2", "N2-N2"),
        ::testing::Values("mesh", "powerlaw", "cliques", "blockrows"),
        ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      std::string n = std::get<0>(info.param) + "_" +
                      std::get<1>(info.param) + "_t" +
                      std::to_string(std::get<2>(info.param));
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

class BgpcOrderings : public ::testing::TestWithParam<OrderingKind> {};

TEST_P(BgpcOrderings, AllOrdersYieldValidColorings) {
  const BipartiteGraph g = make_test_graph("powerlaw");
  const auto order = make_ordering(g, GetParam(), 3);
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 2;
  const auto r = color_bgpc(g, opt, order);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BgpcOrderings,
    ::testing::Values(OrderingKind::kNatural, OrderingKind::kRandom,
                      OrderingKind::kLargestFirst,
                      OrderingKind::kSmallestLast,
                      OrderingKind::kIncidenceDegree),
    [](const auto& info) {
      std::string n = to_string(info.param);
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(BgpcParallel, SingleThreadVertexKernelMatchesSequential) {
  // With one thread, V-V degenerates to the sequential greedy in the
  // same order: identical colors, zero conflicts.
  const BipartiteGraph g = make_test_graph("blockrows");
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 1;
  const auto par = color_bgpc(g, opt);
  const auto seq = color_bgpc_sequential(g);
  EXPECT_EQ(par.colors, seq.colors);
  EXPECT_EQ(par.rounds, 1);
  ASSERT_FALSE(par.iterations.empty());
  EXPECT_EQ(par.iterations.front().conflicts, 0u);
}

TEST(BgpcParallel, Lemma1SingleNetRoundUsesLowerBoundColors) {
  // Lemma 1: a net-based coloring round never assigns a color >= L.
  // With one thread there are no races, net round 1 colors everything
  // conflict-free, so the full run must use exactly L colors.
  const BipartiteGraph g = testing::single_net(32);
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 1;
  const auto r = color_bgpc(g, opt);
  EXPECT_EQ(r.num_colors, 32);
  for (const color_t c : r.colors) EXPECT_LT(c, 32);
}

TEST(BgpcParallel, Lemma1HoldsOnDisjointNets) {
  const BipartiteGraph g = testing::disjoint_nets(20, 7);
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 4;
  const auto r = color_bgpc(g, opt);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  // Every color must be < L = 7 (reverse first-fit from |vtxs|-1).
  for (const color_t c : r.colors) EXPECT_LT(c, 7);
  EXPECT_EQ(r.num_colors, 7);
}

TEST(BgpcParallel, ReverseFirstFitColorsDescendWithinNet) {
  // One net of width 5 colored by Alg. 8 with one thread: colors are
  // assigned 4,3,2,1,0 in adjacency order.
  const BipartiteGraph g = testing::single_net(5);
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 1;
  const auto r = color_bgpc(g, opt);
  EXPECT_EQ(r.colors, (std::vector<color_t>{4, 3, 2, 1, 0}));
}

TEST(BgpcParallel, NetV1VariantsAreValidAndLeaveMoreConflicts) {
  // Table I's claim: Alg. 6 leaves more uncolored vertices after the
  // first round than Alg. 6+reverse, which leaves more than Alg. 8.
  const BipartiteGraph g = make_test_graph("cliques");

  auto conflicts_after_round1 = [&](bool v1, bool v1rev) {
    ColoringOptions opt = bgpc_preset("N1-N2");
    opt.net_v1 = v1;
    opt.net_v1_reverse = v1rev;
    opt.num_threads = 4;
    const auto r = color_bgpc(g, opt);
    EXPECT_TRUE(is_valid_bgpc(g, r.colors));
    return r.iterations.front().conflicts;
  };

  const auto ff = conflicts_after_round1(true, false);
  const auto rev = conflicts_after_round1(true, true);
  const auto alg8 = conflicts_after_round1(false, false);
  // The full ordering ff >= rev >= alg8 is statistical; assert the
  // robust endpoints.
  EXPECT_GT(ff, alg8);
  EXPECT_GE(ff, rev);
}

TEST(BgpcParallel, IterationStatsAreCoherent) {
  const BipartiteGraph g = make_test_graph("mesh");
  ColoringOptions opt = bgpc_preset("V-N2");
  opt.num_threads = 2;
  const auto r = color_bgpc(g, opt);
  ASSERT_FALSE(r.iterations.empty());
  EXPECT_EQ(r.iterations.front().queue_size,
            static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t i = 1; i < r.iterations.size(); ++i)
    EXPECT_EQ(r.iterations[i].queue_size, r.iterations[i - 1].conflicts);
  EXPECT_EQ(r.iterations.back().conflicts, 0u);
  EXPECT_EQ(static_cast<int>(r.iterations.size()), r.rounds);
}

TEST(BgpcParallel, InvalidOptionsThrow) {
  const BipartiteGraph g = testing::single_net(3);
  ColoringOptions opt;
  opt.net_color_rounds = 2;
  opt.net_conflict_rounds = 1;  // vertex removal after net coloring
  EXPECT_THROW(color_bgpc(g, opt), std::invalid_argument);
  ColoringOptions opt2;
  opt2.chunk_size = 0;
  EXPECT_THROW(color_bgpc(g, opt2), std::invalid_argument);
  EXPECT_THROW(bgpc_preset("X-X"), std::invalid_argument);
}

TEST(BgpcParallel, OrderSizeMismatchThrows) {
  const BipartiteGraph g = testing::single_net(3);
  EXPECT_THROW(color_bgpc(g, {}, {0, 1}), std::invalid_argument);
}

TEST(BgpcParallel, HandlesGraphWithIsolatedVertices) {
  Coo coo;
  coo.num_rows = 2;
  coo.num_cols = 6;  // 3..5 isolated
  coo.add(0, 0);
  coo.add(0, 1);
  coo.add(1, 1);
  coo.add(1, 2);
  const BipartiteGraph g = build_bipartite(std::move(coo));
  for (const char* algo : {"V-V", "N1-N2"}) {
    const auto r = color_bgpc(g, bgpc_preset(algo));
    EXPECT_TRUE(is_valid_bgpc(g, r.colors)) << algo;
    EXPECT_EQ(r.colors[4], 0) << algo;
  }
}

TEST(BgpcParallel, ManyThreadsOversubscriptionStillValid) {
  const BipartiteGraph g = make_test_graph("powerlaw");
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 16;  // far above the single hardware core
  const auto r = color_bgpc(g, opt);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
}

}  // namespace
}  // namespace gcol
