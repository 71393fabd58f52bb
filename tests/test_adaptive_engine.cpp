// Unit tests for the AdaptiveFsEngine decision logic (the pure chooser
// behind --forbidden-set=adaptive), plus driver-level checks that the
// per-round choices recorded in IterationStats match the engine's
// contract: conflict phases always stamped, round-1 vertex coloring
// stamped, and the adaptive run's representation mix actually varying
// within a run where the rules say it should.
#include "greedcolor/core/adaptive.hpp"

#include <gtest/gtest.h>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"

namespace gcol {
namespace {

using FS = ForbiddenSetKind;

AdaptiveFsThresholds test_thresholds() {
  AdaptiveFsThresholds t;
  t.net_color_bitmap_max_l = 256;  // non-empty band for the unit tests
  t.vertex_bitmap_max_l = 256;
  t.vertex_bitmap_min_colored_frac = 0.55;
  t.vertex_twolevel_min_l = 4096;
  t.switch_margin = 0.05;
  return t;
}

TEST(AdaptiveFsEngine, FixedKindsPassThrough) {
  for (const FS kind : {FS::kStamped, FS::kBitmap, FS::kTwoLevel}) {
    AdaptiveFsEngine e(kind, 100, test_thresholds());
    EXPECT_FALSE(e.adaptive());
    EXPECT_EQ(e.color_kind(false, 1000, 1000), kind);
    EXPECT_EQ(e.color_kind(true, 1000, 1000), kind);
    EXPECT_EQ(e.conflict_kind(false), kind);
    EXPECT_EQ(e.conflict_kind(true), kind);
  }
}

TEST(AdaptiveFsEngine, ConflictPhasesAlwaysStamped) {
  AdaptiveFsEngine e(FS::kAdaptive, 20, test_thresholds());
  EXPECT_EQ(e.conflict_kind(false), FS::kStamped);
  EXPECT_EQ(e.conflict_kind(true), FS::kStamped);
  e.observe_round(100000);  // huge L changes nothing for conflicts
  EXPECT_EQ(e.conflict_kind(false), FS::kStamped);
  EXPECT_EQ(e.conflict_kind(true), FS::kStamped);
}

TEST(AdaptiveFsEngine, VertexColorStampedWhileMostlyUncolored) {
  AdaptiveFsEngine e(FS::kAdaptive, 20, test_thresholds());
  // Round 1: the whole universe is queued, nothing colored yet.
  EXPECT_EQ(e.color_kind(false, 1000, 1000), FS::kStamped);
  // Half colored: still below the 0.55 gate.
  EXPECT_EQ(e.color_kind(false, 500, 1000), FS::kStamped);
}

TEST(AdaptiveFsEngine, VertexColorBitmapOnceColoredAndLSmall) {
  AdaptiveFsEngine e(FS::kAdaptive, 20, test_thresholds());
  e.observe_round(19);  // L stays small
  EXPECT_EQ(e.color_kind(false, 100, 1000), FS::kBitmap);
}

TEST(AdaptiveFsEngine, VertexColorStampedWhenLLarge) {
  AdaptiveFsEngine e(FS::kAdaptive, 1000, test_thresholds());
  e.observe_round(999);  // L well above vertex_bitmap_max_l
  EXPECT_EQ(e.color_kind(false, 100, 1000), FS::kStamped);
}

TEST(AdaptiveFsEngine, VertexColorTwoLevelWhenLHuge) {
  AdaptiveFsEngine e(FS::kAdaptive, 10000, test_thresholds());
  // Even in round 1: L already spans multiple summary blocks.
  EXPECT_EQ(e.color_kind(false, 1000, 1000), FS::kTwoLevel);
}

TEST(AdaptiveFsEngine, NetColorFollowsTheLBand) {
  AdaptiveFsEngine small(FS::kAdaptive, 30, test_thresholds());
  EXPECT_EQ(small.color_kind(true, 1000, 1000), FS::kBitmap);
  AdaptiveFsEngine large(FS::kAdaptive, 700, test_thresholds());
  EXPECT_EQ(large.color_kind(true, 1000, 1000), FS::kStamped);
}

TEST(AdaptiveFsEngine, ShippedNetBandIsEmpty) {
  // The calibrated defaults: the measured insert crossover is "never",
  // so net coloring is stamped at any L (see adaptive.hpp).
  AdaptiveFsEngine e(FS::kAdaptive, 2);
  EXPECT_EQ(e.color_kind(true, 1000, 1000), FS::kStamped);
}

TEST(AdaptiveFsEngine, ShippedVertexBandFollowsTheBuild) {
  // The vectorized stamped walk beats the bitmap on every kernel row,
  // so vector-gather builds ship an empty vertex band; scalar builds
  // keep the measured L <= 256 band.
  EXPECT_EQ(adaptive_fs_thresholds().vertex_bitmap_max_l,
            kVectorGather ? 0 : 256);
  AdaptiveFsEngine e(FS::kAdaptive, 20);
  e.observe_round(19);  // small L, mostly colored: the bitmap's home turf
  EXPECT_EQ(e.color_kind(false, 100, 1000),
            kVectorGather ? FS::kStamped : FS::kBitmap);
}

TEST(AdaptiveFsEngine, ObserveRoundReplacesStructuralEstimateOnce) {
  AdaptiveFsEngine e(FS::kAdaptive, 5000, test_thresholds());
  EXPECT_EQ(e.running_bound(), 5000);
  // First observation REPLACES the (loose) structural estimate.
  e.observe_round(30);
  EXPECT_EQ(e.running_bound(), 31);
  // Later observations only ever raise it.
  e.observe_round(10);
  EXPECT_EQ(e.running_bound(), 31);
  e.observe_round(60);
  EXPECT_EQ(e.running_bound(), 61);
  // A no-color round (kNoColor) leaves the bound untouched.
  e.observe_round(kNoColor);
  EXPECT_EQ(e.running_bound(), 61);
}

TEST(AdaptiveFsEngine, VertexChoiceIsStickyOffStamped) {
  AdaptiveFsThresholds t = test_thresholds();
  AdaptiveFsEngine e(FS::kAdaptive, 20, t);
  e.observe_round(19);
  EXPECT_EQ(e.color_kind(false, 100, 1000), FS::kBitmap);
  // The colored fraction can only grow in practice; even if the caller
  // feeds a shrunk one, the phase never drops back to stamped (a flip
  // back would cost a cold structure for a noise-level signal).
  EXPECT_EQ(e.color_kind(false, 1000, 1000), FS::kBitmap);
}

TEST(AdaptiveFsEngine, HysteresisMarginDelaysTheSwitch) {
  AdaptiveFsThresholds t = test_thresholds();
  AdaptiveFsEngine e(FS::kAdaptive, 20, t);
  e.observe_round(19);
  // Exactly at the 0.55 gate: the +5% margin keeps it stamped...
  EXPECT_EQ(e.color_kind(false, 450, 1000), FS::kStamped);
  // ...and clearing the margin (0.55 * 1.05 = 0.5775) flips it.
  EXPECT_EQ(e.color_kind(false, 420, 1000), FS::kBitmap);
}

// --- Driver integration: the stats record what actually ran ----------

TEST(AdaptiveFsEngine, BgpcStatsRecordPerRoundChoices) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(1500, 520, 2, 40, 1.6, 42));
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 4;
  opt.forbidden_set = ForbiddenSetKind::kAdaptive;
  const auto r = color_bgpc(g, opt);
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));
  ASSERT_FALSE(r.iterations.empty());
  // Round 1 vertex coloring starts stamped (nothing colored yet) and
  // every conflict phase is stamped by contract.
  EXPECT_EQ(r.iterations.front().color_forbidden_set,
            ForbiddenSetKind::kStamped);
  for (const auto& it : r.iterations)
    EXPECT_EQ(it.conflict_forbidden_set, ForbiddenSetKind::kStamped)
        << "round " << it.round;
}

TEST(AdaptiveFsEngine, BgpcAdaptiveMixesRepresentationsWithinARun) {
  // N1-N2: speculative net coloring produces round-1 conflicts
  // structurally (independent of thread interleaving), so round 2 is a
  // vertex round with a high colored fraction and a small color bound
  // — the engine must have switched it to the bitmap while round 1
  // stayed stamped: the mixed-representation-per-round path the policy
  // template dispatches. Where the stamped walk is vectorized the
  // shipped vertex band is empty, and the same run must stay stamped.
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(1500, 520, 2, 40, 1.6, 42));
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 4;
  opt.forbidden_set = ForbiddenSetKind::kAdaptive;
  const auto r = color_bgpc(g, opt);
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));
  if (r.iterations.size() < 2)
    GTEST_SKIP() << "run converged in one round; no later round to check";
  EXPECT_EQ(r.iterations.front().color_forbidden_set,
            ForbiddenSetKind::kStamped);
  bool saw_bitmap = false;
  for (const auto& it : r.iterations)
    saw_bitmap = saw_bitmap ||
                 it.color_forbidden_set == ForbiddenSetKind::kBitmap;
  if constexpr (kVectorGather) {
    EXPECT_FALSE(saw_bitmap)
        << "the vertex bitmap band is empty on vector-gather builds";
  } else {
    EXPECT_TRUE(saw_bitmap)
        << "later vertex rounds should have switched off stamped";
  }
}

TEST(AdaptiveFsEngine, FixedModeStatsRecordTheFixedKind) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(800, 300, 2, 30, 1.6, 7));
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  opt.forbidden_set = ForbiddenSetKind::kTwoLevel;
  const auto r = color_bgpc(g, opt);
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));
  for (const auto& it : r.iterations) {
    EXPECT_EQ(it.color_forbidden_set, ForbiddenSetKind::kTwoLevel);
    EXPECT_EQ(it.conflict_forbidden_set, ForbiddenSetKind::kTwoLevel);
  }
}

}  // namespace
}  // namespace gcol
