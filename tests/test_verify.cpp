#include "greedcolor/core/verify.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <limits>

#include "greedcolor/graph/builder.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

TEST(VerifyBgpc, AcceptsValidColoring) {
  const BipartiteGraph g = testing::single_net(3);
  EXPECT_TRUE(is_valid_bgpc(g, {0, 1, 2}));
}

TEST(VerifyBgpc, RejectsSharedColorInNet) {
  const BipartiteGraph g = testing::single_net(3);
  const auto v = check_bgpc(g, {0, 1, 0});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->via, 0);
  EXPECT_TRUE((v->a == 0 && v->b == 2) || (v->a == 2 && v->b == 0));
}

TEST(VerifyBgpc, RejectsUncolored) {
  const BipartiteGraph g = testing::single_net(2);
  const auto v = check_bgpc(g, {0, kNoColor});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->a, 1);
  EXPECT_NE(v->what.find("uncolored"), std::string::npos);
}

TEST(VerifyBgpc, RejectsSizeMismatch) {
  const BipartiteGraph g = testing::single_net(3);
  EXPECT_FALSE(is_valid_bgpc(g, {0, 1}));
}

TEST(VerifyBgpc, DisjointNetsMayReuseColors) {
  const BipartiteGraph g = testing::disjoint_nets(2, 2);
  EXPECT_TRUE(is_valid_bgpc(g, {0, 1, 0, 1}));
}

TEST(VerifyBgpc, CatchesCrossNetConflictOnlyViaSharedNet) {
  // vertices 0,1 share net 0; vertices 1,2 share net 1. 0 and 2 may
  // share a color.
  Coo coo;
  coo.num_rows = 2;
  coo.num_cols = 3;
  coo.add(0, 0);
  coo.add(0, 1);
  coo.add(1, 1);
  coo.add(1, 2);
  const BipartiteGraph g = build_bipartite(std::move(coo));
  EXPECT_TRUE(is_valid_bgpc(g, {0, 1, 0}));
  EXPECT_FALSE(is_valid_bgpc(g, {0, 0, 1}));
  EXPECT_FALSE(is_valid_bgpc(g, {1, 0, 0}));
}

/// A graph with no vertices has nothing to check, with or without nets.
TEST(VerifyBgpc, EmptyGraphIsValid) {
  for (const vid_t nets : {0, 3}) {
    Coo coo;
    coo.num_rows = nets;
    coo.num_cols = 0;
    const BipartiteGraph g = build_bipartite(std::move(coo));
    ASSERT_EQ(g.num_vertices(), 0);
    ASSERT_EQ(g.num_nets(), nets);
    EXPECT_FALSE(check_bgpc(g, {}).has_value()) << "nets=" << nets;
    EXPECT_TRUE(is_valid_bgpc(g, {})) << "nets=" << nets;
    EXPECT_FALSE(is_valid_bgpc(g, {0})) << "nets=" << nets;
  }
  EXPECT_FALSE(check_bgpc(BipartiteGraph{}, {}).has_value());
}

/// Peak resident set of this process so far, in MB (Linux: ru_maxrss
/// is in KB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

constexpr color_t kTopColor = std::numeric_limits<color_t>::max();

TEST(VerifyBgpc, ColorsNearIntMaxKeepMemoryBounded) {
  const BipartiteGraph g = testing::single_net(3);
  const double before = peak_rss_mb();
  const auto v = check_bgpc(g, {kTopColor, kTopColor - 1, kTopColor});
  EXPECT_LT(peak_rss_mb() - before, 64.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->a, 2);
  EXPECT_EQ(v->b, 0);
  EXPECT_EQ(v->via, 0);
  EXPECT_TRUE(is_valid_bgpc(g, {kTopColor, kTopColor - 1, kTopColor - 2}));
}

TEST(VerifyD2gc, PathNeedsThreeColorsInWindows) {
  const Graph g = build_graph(testing::path_coo(5));
  // 0-1-2-3-4: any window of 3 consecutive must be all-distinct.
  EXPECT_TRUE(is_valid_d2gc(g, {0, 1, 2, 0, 1}));
  EXPECT_FALSE(is_valid_d2gc(g, {0, 1, 0, 1, 0}));  // 0 and 2 clash
}

TEST(VerifyD2gc, Distance3PairsMayShare) {
  const Graph g = build_graph(testing::path_coo(4));
  EXPECT_TRUE(is_valid_d2gc(g, {0, 1, 2, 0}));  // d(0,3)=3
}

TEST(VerifyD2gc, ReportsMiddleVertex) {
  const Graph g = build_graph(testing::path_coo(3));
  const auto v = check_d2gc(g, {0, 1, 0});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->via, 1);  // 0 and 2 clash through middle vertex 1
}

TEST(VerifyD2gc, RejectsUncoloredAndSizeMismatch) {
  const Graph g = build_graph(testing::path_coo(3));
  EXPECT_FALSE(is_valid_d2gc(g, {0, kNoColor, 1}));
  EXPECT_FALSE(is_valid_d2gc(g, {0, 1}));
}

TEST(VerifyD2gc, StarRequiresAllDistinct) {
  const Graph g = build_graph(testing::star_coo(5));
  EXPECT_TRUE(is_valid_d2gc(g, {0, 1, 2, 3, 4}));
  EXPECT_FALSE(is_valid_d2gc(g, {0, 1, 2, 3, 1}));  // two leaves clash
}

TEST(VerifyD2gc, ColorsNearIntMaxKeepMemoryBounded) {
  const Graph g = build_graph(testing::path_coo(3));
  const double before = peak_rss_mb();
  const auto v = check_d2gc(g, {kTopColor - 1, kTopColor, kTopColor - 1});
  EXPECT_LT(peak_rss_mb() - before, 64.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->a, 2);  // 0 and 2 clash through middle vertex 1
  EXPECT_EQ(v->b, 0);
  EXPECT_EQ(v->via, 1);
  EXPECT_TRUE(is_valid_d2gc(g, {kTopColor - 2, kTopColor, kTopColor - 1}));
}

TEST(VerifyD2gc, EmptyGraphIsValid) {
  Coo coo;
  const Graph g = build_graph(std::move(coo));
  ASSERT_EQ(g.num_vertices(), 0);
  EXPECT_FALSE(check_d2gc(g, {}).has_value());
  EXPECT_TRUE(is_valid_d2gc(g, {}));
  EXPECT_FALSE(is_valid_d2gc(g, {0}));
  EXPECT_FALSE(check_d2gc(Graph{}, {}).has_value());
}

TEST(ViolationToString, MentionsAllParts) {
  ColoringViolation v{1, 2, 3, "boom"};
  const std::string s = v.to_string();
  EXPECT_NE(s.find("boom"), std::string::npos);
  EXPECT_NE(s.find("vertex=1"), std::string::npos);
  EXPECT_NE(s.find("partner=2"), std::string::npos);
  EXPECT_NE(s.find("via=3"), std::string::npos);
}

}  // namespace
}  // namespace gcol
