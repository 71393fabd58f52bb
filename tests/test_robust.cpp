// The robust subsystem's contract, exercised end to end: typed errors,
// deterministic fault plans, the convergence watchdog's degradation
// flags, incremental verify-and-repair, and the fail-safe verified
// entry points under injected faults.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/robust/verified.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

// ---------------------------------------------------------------- errors

TEST(RobustError, CarriesCodeAndMessage) {
  const Error e(ErrorCode::kBadInput, "broken thing");
  EXPECT_EQ(e.code(), ErrorCode::kBadInput);
  EXPECT_STREQ(e.what(), "broken thing");
}

TEST(RobustError, IsCatchableAsRuntimeError) {
  // Existing catch sites predate the typed layer; they must keep working.
  try {
    raise(ErrorCode::kTruncatedInput, "ctx", "short");
    FAIL() << "raise returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ctx: short");
  }
}

TEST(RobustError, InputErrorClassification) {
  for (const auto code :
       {ErrorCode::kInvalidArgument, ErrorCode::kIoError, ErrorCode::kBadInput,
        ErrorCode::kTruncatedInput, ErrorCode::kCorruptHeader,
        ErrorCode::kOutOfRange})
    EXPECT_TRUE(Error(code, "x").is_input_error()) << to_string(code);
  EXPECT_FALSE(Error(ErrorCode::kDeadlineExceeded, "x").is_input_error());
  EXPECT_FALSE(Error(ErrorCode::kInternalInvariant, "x").is_input_error());
}

TEST(RobustError, ToStringIsStableAndDistinct) {
  EXPECT_STREQ(to_string(ErrorCode::kBadInput), "bad-input");
  EXPECT_STREQ(to_string(ErrorCode::kCorruptHeader), "corrupt-header");
  EXPECT_STRNE(to_string(ErrorCode::kIoError),
               to_string(ErrorCode::kOutOfRange));
}

// ------------------------------------------------------------ fault plan

TEST(FaultPlan, SpecRoundTrips) {
  const auto plan = FaultPlan::parse(
      "seed=42,stale=0.05,delay-rounds=3,delay-ms=10,flip=0.01,trunc=0.5");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.stale_color_rate, 0.05);
  EXPECT_EQ(plan.delay_rounds, 3);
  EXPECT_EQ(plan.delay_ms, 10);
  EXPECT_DOUBLE_EQ(plan.flip_byte_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.truncate_fraction, 0.5);
  const auto back = FaultPlan::parse(plan.to_spec());
  EXPECT_EQ(back.to_spec(), plan.to_spec());
}

TEST(FaultPlan, UnderscoresNormalizeToDashes) {
  const auto plan = FaultPlan::parse("delay_rounds=2,delay_ms=5");
  EXPECT_EQ(plan.delay_rounds, 2);
  EXPECT_EQ(plan.delay_ms, 5);
}

TEST(FaultPlan, BadSpecsThrowTyped) {
  // The superstep-exchange keys (drop, reorder, dup, delay-steps, part*)
  // are unknown keys like any other.
  for (const auto* spec :
       {"bogus=1", "stale=nope", "stale=-0.5", "stale=1.5", "delay-ms=-2",
        "seed=", "=3", "drop=0.2", "reorder=0.1", "dup=0.1", "delay-steps=2",
        "part=1", "part-start=0", "part-steps=3"}) {
    try {
      (void)FaultPlan::parse(spec);
      FAIL() << "accepted '" << spec << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << spec;
    }
  }
}

TEST(FaultPlan, DecisionsAreDeterministic) {
  FaultPlan plan;
  plan.seed = 7;
  plan.stale_color_rate = 0.3;
  int hits = 0;
  for (vid_t u = 0; u < 1000; ++u) {
    EXPECT_EQ(plan.corrupt_color(2, u), plan.corrupt_color(2, u));
    if (plan.corrupt_color(2, u)) ++hits;
  }
  // A Bernoulli(0.3) over 1000 items lands well inside [150, 450].
  EXPECT_GT(hits, 150);
  EXPECT_LT(hits, 450);
}

TEST(FaultPlan, CorruptBytesIsDeterministicAndVaried) {
  FaultPlan plan;
  plan.seed = 11;
  plan.flip_byte_rate = 0.05;
  plan.truncate_fraction = 0.5;
  const std::string bytes(4096, 'A');
  const std::string a = plan.corrupt_bytes(bytes, 0);
  EXPECT_EQ(a, plan.corrupt_bytes(bytes, 0));
  EXPECT_NE(a, plan.corrupt_bytes(bytes, 1));
  EXPECT_LE(a.size(), bytes.size());
}

TEST(FaultPlan, StaleInjectionCreatesRealConflicts) {
  const BipartiteGraph g =
      build_bipartite(gen_random_bipartite(60, 200, 900, 5));
  auto base = color_bgpc_sequential(g);
  ASSERT_FALSE(check_bgpc(g, base.colors).has_value());
  FaultPlan plan;
  plan.seed = 3;
  plan.stale_color_rate = 0.25;
  auto colors = base.colors;
  const vid_t corrupted = inject_stale_colors(plan, g, 1, colors);
  EXPECT_GT(corrupted, 0);
  // The injected writes are real distance-2 conflicts, not no-ops.
  EXPECT_TRUE(check_bgpc(g, colors).has_value());
}

// -------------------------------------------------------------- watchdog

/// Closed-neighborhood BGPC instance of a cycle: every vertex shares a
/// net with its neighbors, so the optimistic net_v1 kernel leaves
/// deterministic conflicts even on one thread.
BipartiteGraph cycle_closed(vid_t n) {
  return graph_to_bipartite_closed(build_graph(testing::cycle_coo(n)));
}

ColoringOptions netv1_options() {
  ColoringOptions opt;
  opt.name = "net-v1";
  opt.net_v1 = true;
  opt.net_color_rounds = 1;
  opt.net_conflict_rounds = 1;
  opt.num_threads = 1;
  return opt;
}

TEST(Watchdog, RoundBudgetDegradesGracefully) {
  const BipartiteGraph g = cycle_closed(301);
  ColoringOptions opt = netv1_options();
  opt.max_rounds = 1;
  const auto r = color_bgpc(g, opt);
  EXPECT_TRUE(r.rounds_capped);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.sequential_fallback);
  EXPECT_FALSE(r.deadline_hit);
  // The fallback is the guaranteed-valid sequential cleanup.
  EXPECT_FALSE(check_bgpc(g, r.colors).has_value());
}

TEST(Watchdog, DeadlineDegradesGracefully) {
  const BipartiteGraph g = cycle_closed(301);
  FaultPlan plan;
  plan.delay_rounds = 10;
  plan.delay_ms = 10;
  ColoringOptions opt = netv1_options();
  FaultInjector faults(plan);
  opt.hooks = {&faults};  // straggler stall trips the deadline
  opt.deadline_seconds = 0.002;
  const auto r = color_bgpc(g, opt);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.sequential_fallback);
  EXPECT_FALSE(check_bgpc(g, r.colors).has_value());
}

TEST(Watchdog, CleanRunsCarryNoDegradationFlags) {
  const BipartiteGraph g = cycle_closed(64);
  const auto r = color_bgpc(g, bgpc_preset("V-V"));
  EXPECT_FALSE(r.degraded);
  EXPECT_FALSE(r.rounds_capped);
  EXPECT_FALSE(r.deadline_hit);
  EXPECT_EQ(r.faults_injected, 0);
  EXPECT_EQ(r.repaired_vertices, 0);
}

TEST(Watchdog, NegativeDeadlineRejected) {
  ColoringOptions opt;
  opt.deadline_seconds = -1.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------- repair

TEST(Repair, FixesInjectedDamageIncrementally) {
  const BipartiteGraph g =
      build_bipartite(gen_random_bipartite(80, 400, 1600, 9));
  auto colors = color_bgpc_sequential(g).colors;
  FaultPlan plan;
  plan.seed = 13;
  plan.stale_color_rate = 0.1;
  const vid_t corrupted = inject_stale_colors(plan, g, 1, colors);
  ASSERT_GT(corrupted, 0);
  const RepairStats stats = repair_bgpc(g, colors);
  EXPECT_FALSE(check_bgpc(g, colors).has_value());
  // The acceptance bar: repair touches strictly fewer vertices than the
  // from-scratch rerun (which recolors every vertex) would.
  EXPECT_GT(stats.repaired, 0);
  EXPECT_LT(stats.repaired, g.num_vertices());
}

TEST(Repair, IsIdempotentOnValidColorings) {
  const BipartiteGraph g = testing::disjoint_nets(4, 5);
  auto colors = color_bgpc_sequential(g).colors;
  const RepairStats stats = repair_bgpc(g, colors);
  EXPECT_TRUE(stats.clean());
  EXPECT_FALSE(check_bgpc(g, colors).has_value());
}

TEST(Repair, SanitizesGarbageWithoutHugeAllocations) {
  const BipartiteGraph g = testing::single_net(8);
  auto colors = color_bgpc_sequential(g).colors;
  colors[0] = -42;
  colors[1] = std::numeric_limits<color_t>::max();  // would OOM a naive set
  colors[2] = kNoColor;
  const RepairStats stats = repair_bgpc(g, colors);
  EXPECT_EQ(stats.sanitized, 2);
  EXPECT_GE(stats.repaired, 3);
  EXPECT_FALSE(check_bgpc(g, colors).has_value());
}

TEST(Repair, RejectsSizeMismatch) {
  const BipartiteGraph g = testing::single_net(4);
  std::vector<color_t> colors(3, kNoColor);
  try {
    (void)repair_bgpc(g, colors);
    FAIL() << "accepted mismatched colors";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(Repair, D2gcFlavorRepairsDistanceTwoDamage) {
  Coo coo = gen_random_bipartite(150, 150, 900, 21);
  coo.symmetrize();
  const Graph g = build_graph(std::move(coo));
  auto colors = color_d2gc_sequential(g).colors;
  FaultPlan plan;
  plan.seed = 17;
  plan.stale_color_rate = 0.15;
  const vid_t corrupted = inject_stale_colors(plan, g, 1, colors);
  ASSERT_GT(corrupted, 0);
  const RepairStats stats = repair_d2gc(g, colors);
  EXPECT_FALSE(check_d2gc(g, colors).has_value());
  EXPECT_GT(stats.repaired, 0);
  EXPECT_LT(stats.repaired, g.num_vertices());
}

// ------------------------------------------------- verified entry points

TEST(Verified, RepairsFaultedBgpcRun) {
  const BipartiteGraph g =
      build_bipartite(gen_random_bipartite(70, 300, 1200, 31));
  FaultPlan plan;
  plan.seed = 5;
  plan.stale_color_rate = 0.2;
  ColoringOptions opt = bgpc_preset("V-V");
  FaultInjector faults(plan);
  opt.hooks = {&faults};
  const auto r = color_bgpc_verified(g, opt);
  EXPECT_FALSE(check_bgpc(g, r.colors).has_value());
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.repaired_vertices, 0);
  EXPECT_LT(r.repaired_vertices, g.num_vertices());
}

TEST(Verified, CleanRunsPassThroughUntouched) {
  const BipartiteGraph g = testing::disjoint_nets(6, 4);
  const auto r = color_bgpc_verified(g, bgpc_preset("N1-N2"));
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.repaired_vertices, 0);
  EXPECT_FALSE(check_bgpc(g, r.colors).has_value());
}

TEST(Verified, TranslatesApiMisuseToTypedError) {
  const BipartiteGraph g = testing::single_net(4);
  std::vector<vid_t> bad_order = {0, 1};  // wrong length
  try {
    (void)color_bgpc_verified(g, bgpc_preset("V-V"), bad_order);
    FAIL() << "accepted bad order";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

// An order of the right length that is not a permutation is a caller
// mistake too: a repeated id left another vertex uncolored (-1) without
// an error, and an id out of range read past the CSR's row pointers.
TEST(Verified, RejectsOrdersThatAreNotPermutations) {
  const BipartiteGraph bg = testing::single_net(4);
  const Graph ug = build_graph(testing::path_coo(4));
  const std::vector<std::vector<vid_t>> bad = {
      {0, 0, 2, 3},   // duplicate id
      {0, 1, 2, 4},   // id == |V|
      {0, 1, 2, -1},  // negative id
  };
  for (const std::vector<vid_t>& order : bad) {
    EXPECT_THROW((void)color_bgpc(bg, bgpc_preset("V-V"), order),
                 std::invalid_argument);
    EXPECT_THROW((void)color_bgpc_sequential(bg, order),
                 std::invalid_argument);
    EXPECT_THROW((void)color_d2gc(ug, d2gc_preset("N1-N2"), order),
                 std::invalid_argument);
    EXPECT_THROW((void)color_d2gc_sequential(ug, order),
                 std::invalid_argument);
    try {
      (void)color_bgpc_verified(bg, bgpc_preset("V-V"), order);
      FAIL() << "accepted a non-permutation order";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    }
    try {
      (void)color_d2gc_verified(ug, d2gc_preset("V-V-64D"), order);
      FAIL() << "accepted a non-permutation order";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    }
  }
}

TEST(Verified, D2gcRepairsFaultedRun) {
  Coo coo = gen_random_bipartite(180, 180, 1100, 41);
  coo.symmetrize();
  const Graph g = build_graph(std::move(coo));
  FaultPlan plan;
  plan.seed = 29;
  plan.stale_color_rate = 0.2;
  ColoringOptions opt = d2gc_preset("V-N1");
  FaultInjector faults(plan);
  opt.hooks = {&faults};
  const auto r = color_d2gc_verified(g, opt);
  EXPECT_FALSE(check_d2gc(g, r.colors).has_value());
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_TRUE(r.degraded);
}

}  // namespace
}  // namespace gcol
