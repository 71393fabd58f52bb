#include "greedcolor/core/d1gc.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/util/counters.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

Graph make_test_graph(const std::string& shape) {
  if (shape == "mesh") return build_graph(gen_mesh2d(40, 40, 1));
  if (shape == "pa")
    return build_graph(gen_preferential_attachment(2000, 5, 3));
  if (shape == "cliques")
    return build_graph(gen_clique_union(1500, 600, 2, 50, 1.8, 8));
  throw std::invalid_argument(shape);
}

TEST(D1gcSequential, KnownSmallGraphs) {
  EXPECT_EQ(color_d1gc_sequential(build_graph(testing::path_coo(6)))
                .num_colors,
            2);
  EXPECT_EQ(color_d1gc_sequential(build_graph(testing::cycle_coo(6)))
                .num_colors,
            2);
  EXPECT_EQ(color_d1gc_sequential(build_graph(testing::cycle_coo(5)))
                .num_colors,
            3);  // odd cycle
  EXPECT_EQ(color_d1gc_sequential(build_graph(testing::star_coo(9)))
                .num_colors,
            2);
  EXPECT_EQ(color_d1gc_sequential(build_graph(testing::complete_coo(7)))
                .num_colors,
            7);
}

TEST(D1gcSequential, GreedyBoundHolds) {
  const Graph g = make_test_graph("pa");
  const auto r = color_d1gc_sequential(g);
  EXPECT_TRUE(is_valid_d1gc(g, r.colors));
  EXPECT_LE(r.num_colors, d1gc_color_bound(g));
}

using Param = std::tuple<std::string, int, BalancePolicy>;

class D1gcSpeculative : public ::testing::TestWithParam<Param> {};

TEST_P(D1gcSpeculative, ValidColoring) {
  const auto& [shape, threads, balance] = GetParam();
  const Graph g = make_test_graph(shape);
  ColoringOptions opt = bgpc_preset("V-V-64D");
  opt.num_threads = threads;
  opt.balance = balance;
  const auto r = color_d1gc(g, opt);
  const auto violation = check_d1gc(g, r.colors);
  EXPECT_FALSE(violation.has_value())
      << (violation ? violation->to_string() : "");
  EXPECT_LE(r.num_colors, d1gc_color_bound(g));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesThreadsPolicies, D1gcSpeculative,
    ::testing::Combine(::testing::Values("mesh", "pa", "cliques"),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(BalancePolicy::kNone,
                                         BalancePolicy::kB1,
                                         BalancePolicy::kB2)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_" +
             to_string(std::get<2>(info.param));
    });

TEST(D1gcSpeculative, SingleThreadMatchesSequential) {
  const Graph g = make_test_graph("pa");
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 1;
  EXPECT_EQ(color_d1gc(g, opt).colors, color_d1gc_sequential(g).colors);
}

TEST(D1gcSpeculative, RejectsNetRounds) {
  const Graph g = build_graph(testing::path_coo(3));
  EXPECT_THROW(color_d1gc(g, bgpc_preset("N1-N2")),
               std::invalid_argument);
  EXPECT_THROW(color_d1gc(g, bgpc_preset("V-N1")), std::invalid_argument);
}

// The round cap ends in the engine's sequential cleanup, flagged, never
// in an exception; whether round 1 left conflicts depends on the
// thread interleaving, so the flags are checked for consistency.
TEST(D1gcSpeculative, RoundCapEndsInSequentialCleanup) {
  const Graph g = make_test_graph("cliques");
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 4;
  opt.max_rounds = 1;
  ColoringResult r;
  ASSERT_NO_THROW(r = color_d1gc(g, opt));
  EXPECT_TRUE(is_valid_d1gc(g, r.colors));
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.rounds_capped, r.sequential_fallback);
  EXPECT_EQ(r.degraded, r.sequential_fallback);
}

TEST(D1gcSpeculative, RecordsMaxColor) {
  if constexpr (!kCountersEnabled) GTEST_SKIP() << "counters compiled out";
  const Graph g = make_test_graph("pa");
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 1;
  const auto r = color_d1gc(g, opt);
  ASSERT_FALSE(r.iterations.empty());
  EXPECT_EQ(r.iterations.front().color_counters.max_color + 1,
            r.num_colors);
}

TEST(D1gcJonesPlassmann, ValidOnAllShapes) {
  for (const char* shape : {"mesh", "pa", "cliques"}) {
    const Graph g = make_test_graph(shape);
    const auto r = color_d1gc_jones_plassmann(g, 7, 4);
    EXPECT_TRUE(is_valid_d1gc(g, r.colors)) << shape;
    EXPECT_LE(r.num_colors, d1gc_color_bound(g)) << shape;
  }
}

TEST(D1gcJonesPlassmann, DeterministicAcrossThreadCounts) {
  const Graph g = make_test_graph("cliques");
  const auto t1 = color_d1gc_jones_plassmann(g, 42, 1);
  const auto t4 = color_d1gc_jones_plassmann(g, 42, 4);
  EXPECT_EQ(t1.colors, t4.colors);
  EXPECT_EQ(t1.rounds, t4.rounds);
}

TEST(D1gcJonesPlassmann, SeedChangesResult) {
  const Graph g = make_test_graph("pa");
  const auto a = color_d1gc_jones_plassmann(g, 1, 2);
  const auto b = color_d1gc_jones_plassmann(g, 2, 2);
  EXPECT_TRUE(is_valid_d1gc(g, a.colors));
  EXPECT_TRUE(is_valid_d1gc(g, b.colors));
  EXPECT_NE(a.colors, b.colors);  // astronomically unlikely to match
}

TEST(D1gcJonesPlassmann, RoundCountIsLogarithmicNotLinear) {
  // JP's expected round count is O(log n) on bounded-degree graphs; on
  // the 1600-vertex mesh a generous cap of 50 demonstrates it is far
  // from the n rounds of a serial schedule.
  const Graph g = make_test_graph("mesh");
  const auto r = color_d1gc_jones_plassmann(g, 3, 4);
  EXPECT_LE(r.rounds, 50);
  EXPECT_GE(r.rounds, 2);
}

TEST(D1gcVerifier, CatchesPlantedConflicts) {
  const Graph g = build_graph(testing::path_coo(3));
  EXPECT_TRUE(is_valid_d1gc(g, {0, 1, 0}));
  EXPECT_FALSE(is_valid_d1gc(g, {0, 0, 1}));
  EXPECT_FALSE(is_valid_d1gc(g, {0, kNoColor, 0}));
  EXPECT_FALSE(is_valid_d1gc(g, {0, 1}));
}

TEST(D1gc, IntroClaimD1MuchCheaperThanD2) {
  // The paper's introduction: sequential D1GC is fast while D2GC "can
  // be in the order of minutes". Check the work-complexity gap on a
  // mesh: D1 visits O(E), D2 visits O(sum deg^2).
  const Graph g = make_test_graph("mesh");
  const auto d1 = color_d1gc_sequential(g);
  EXPECT_TRUE(is_valid_d1gc(g, d1.colors));
  // 2-D 9-point mesh: 4-ish colors for D1, ~9+ for D2 lower bound.
  EXPECT_LE(d1.num_colors, 6);
  EXPECT_GE(d1gc_color_bound(g), d1.num_colors);
}

}  // namespace
}  // namespace gcol
