#include "greedcolor/core/color_stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"

namespace gcol {
namespace {

TEST(ColorSchedule, GroupsByColor) {
  const ColorSchedule s = ColorSchedule::build({1, 0, 1, 2, 0});
  EXPECT_EQ(s.num_classes(), 3);
  EXPECT_EQ(s.total_items(), 5);
  const auto c0 = s.class_members(0);
  EXPECT_EQ(std::vector<vid_t>(c0.begin(), c0.end()),
            (std::vector<vid_t>{1, 4}));
  const auto c1 = s.class_members(1);
  EXPECT_EQ(std::vector<vid_t>(c1.begin(), c1.end()),
            (std::vector<vid_t>{0, 2}));
  EXPECT_EQ(s.class_size(2), 1);
}

TEST(ColorSchedule, RejectsIncompleteColoring) {
  // Uncolored items group last; executing them is refused.
  const ColorSchedule s = ColorSchedule::build({kNoColor, 0, kNoColor});
  EXPECT_EQ(s.num_classes(), 1);
  EXPECT_EQ(std::vector<vid_t>(s.uncolored().begin(), s.uncolored().end()),
            (std::vector<vid_t>{0, 2}));
  EXPECT_THROW(s.for_each_parallel([](vid_t) {}), std::invalid_argument);
  EXPECT_THROW(ColorSchedule::build({0, -2}), std::invalid_argument);
}

TEST(ColorSchedule, ForEachVisitsEveryItemExactlyOnce) {
  const ColorSchedule s = ColorSchedule::build({0, 1, 0, 2, 1, 0});
  std::vector<std::atomic<int>> visits(6);
  s.for_each_parallel([&](vid_t v) { ++visits[static_cast<std::size_t>(v)]; },
                      4);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ColorSchedule, ClassesAreExecutedInColorOrder) {
  const ColorSchedule s = ColorSchedule::build({0, 1, 2});
  std::vector<vid_t> sequence;
  s.for_each_parallel([&](vid_t v) { sequence.push_back(v); }, 1);
  EXPECT_EQ(sequence, (std::vector<vid_t>{0, 1, 2}));
}

TEST(ColorSchedule, LockFreeNeighborhoodUpdatesAreSafe) {
  // The actual guarantee: with a valid BGPC coloring, all columns in a
  // class touch disjoint rows, so unsynchronized row writes are safe.
  const BipartiteGraph g =
      build_bipartite(gen_random_bipartite(300, 500, 3000, 12));
  const auto r = color_bgpc(g, bgpc_preset("N1-N2"));
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));

  const ColorSchedule s = ColorSchedule::build(r.colors);
  std::vector<int> row_touches(300, 0);  // plain ints: no atomics
  std::vector<int> row_total(300, 0);
  s.for_each_parallel(
      [&](vid_t col) {
        for (const vid_t net : g.nets(col)) {
          ++row_touches[static_cast<std::size_t>(net)];  // race iff invalid
          ++row_total[static_cast<std::size_t>(net)];
        }
      },
      4, 4);
  for (vid_t net = 0; net < 300; ++net)
    EXPECT_EQ(row_touches[static_cast<std::size_t>(net)], g.net_degree(net));
}

TEST(ColorScheduleStats, SpanAndEfficiency) {
  // classes of sizes 4 and 2, P=2: span = 2 + 1 = 3; eff = 6/(2*3)=1.0
  const auto st = color_class_stats({0, 0, 0, 0, 1, 1});
  EXPECT_EQ(st.num_colors, 2);
  EXPECT_EQ(st.span(2), 3u);
  EXPECT_DOUBLE_EQ(st.efficiency(2), 1.0);
  EXPECT_EQ(st.max, 4);
  EXPECT_EQ(st.min, 2);
}

TEST(ColorScheduleStats, SingletonsWasteParallelism) {
  // 4 singleton classes on 4 threads: span 4, efficiency 0.25.
  const auto st = color_class_stats({0, 1, 2, 3});
  EXPECT_EQ(st.span(4), 4u);
  EXPECT_DOUBLE_EQ(st.efficiency(4), 0.25);
}

TEST(ColorScheduleStats, BalancedColoringImprovesEfficiency) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(2000, 800, 2, 80, 1.7, 19));
  ColoringOptions opt = bgpc_preset("V-N2");
  opt.num_threads = 2;
  const auto u = color_bgpc(g, opt);
  opt.balance = BalancePolicy::kB2;
  const auto b2 = color_bgpc(g, opt);
  ASSERT_TRUE(is_valid_bgpc(g, u.colors));
  ASSERT_TRUE(is_valid_bgpc(g, b2.colors));
  const auto eff_u = color_class_stats(u.colors).efficiency(16);
  const auto eff_b2 = color_class_stats(b2.colors).efficiency(16);
  EXPECT_GT(eff_b2, eff_u);  // the Section V claim, quantified
}

TEST(ColorScheduleStats, RejectsBadThreadCount) {
  const auto st = color_class_stats({0});
  EXPECT_THROW((void)st.span(0), std::invalid_argument);
  EXPECT_THROW((void)st.efficiency(0), std::invalid_argument);
}

}  // namespace
}  // namespace gcol
