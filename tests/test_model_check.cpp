// gcol-mc: schedule exploration over the speculative kernels.
//
// The trace-codec and attachment tests run in every build. The
// exploration tests need the GCOL_MC schedule points compiled into the
// kernels (the modelcheck preset) and GTEST_SKIP elsewhere — in a
// normal build the kernels never yield, so there is nothing to explore.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "greedcolor/check/explore.hpp"
#include "greedcolor/check/mc.hpp"
#include "greedcolor/check/trace.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

using check::ExploreMode;
using check::McContext;
using check::McOptions;
using check::McResult;
using check::McTrace;
using check::McViolationKind;

McOptions mc_options(ExploreMode mode) {
  McOptions opts;
  opts.mode = mode;
  opts.virtual_threads = 2;
  opts.max_schedules = 200000;
  opts.time_budget_seconds = 60.0;
  return opts;
}

// ---- trace codec (build-independent) --------------------------------

TEST(McTrace, EncodeDecodeRoundTrip) {
  McTrace trace;
  trace.label = "bgpc V-V mode=dpor vthreads=2 seed=7";
  trace.choices = {0, 1, 1, 0, 2, 0};
  const McTrace back = check::decode_trace(check::encode_trace(trace));
  EXPECT_EQ(back, trace);
  EXPECT_EQ(back.label, trace.label);
}

TEST(McTrace, EmptyChoicesRoundTrip) {
  McTrace trace;  // a schedule with no real decision points
  const McTrace back = check::decode_trace(check::encode_trace(trace));
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.version, 1u);
}

TEST(McTrace, DecodeRejectsMalformed) {
  const auto code_of = [](const std::string& text) {
    try {
      (void)check::decode_trace(text);
    } catch (const Error& e) {
      return e.code();
    }
    return ErrorCode::kInternalInvariant;  // "did not throw"
  };
  EXPECT_EQ(code_of(""), ErrorCode::kBadInput);
  EXPECT_EQ(code_of("not-a-trace v1\nchoices=0"), ErrorCode::kBadInput);
  EXPECT_EQ(code_of("gcol-mc-trace v9\nchoices=0"), ErrorCode::kBadInput);
  EXPECT_EQ(code_of("gcol-mc-trace v1\nchoices=0,bogus"),
            ErrorCode::kBadInput);
  EXPECT_EQ(code_of("gcol-mc-trace v1\nchoices=999"), ErrorCode::kBadInput);
  EXPECT_EQ(code_of("gcol-mc-trace v1\nwhat=ever"), ErrorCode::kBadInput);
  // Missing choices line entirely.
  EXPECT_EQ(code_of("gcol-mc-trace v1\nlabel=x"), ErrorCode::kBadInput);
}

TEST(McTrace, FileRoundTripAndIoErrors) {
  McTrace trace;
  trace.label = "file round-trip";
  trace.choices = {1, 0, 1};
  const std::string path =
      ::testing::TempDir() + "gcol_mc_trace_roundtrip.mctrace";
  check::write_trace_file(trace, path);
  EXPECT_EQ(check::read_trace_file(path), trace);
  std::remove(path.c_str());
  EXPECT_THROW((void)check::read_trace_file(path), Error);
}

// ---- attachment semantics (build-independent) -----------------------

// An attached but never-armed checker must be inert: the driver hooks
// and (in GCOL_MC builds) the kernel yields all no-op.
TEST(McAttach, UnarmedCheckerIsInert) {
  const BipartiteGraph g = testing::single_net(4);
  McContext ctx;
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  opt.hooks = {&ctx};
  const ColoringResult r = color_bgpc(g, opt);
  EXPECT_EQ(r.colors.size(), 4u);
  EXPECT_EQ(r.num_colors, 4);
}

TEST(McAttach, ArmRequiresMcBuild) {
  if (check::kMcEnabled) GTEST_SKIP() << "GCOL_MC build: arm is allowed";
  McContext ctx;
  class Never : public check::Strategy {
    int pick(const check::SchedulePoint&) override { return 0; }
  } strategy;
  try {
    ctx.arm(strategy);
    FAIL() << "arm() must throw without GCOL_MC";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

// ---- schedule exploration (GCOL_MC builds only) ---------------------

#define GCOL_MC_ONLY()                                              \
  do {                                                              \
    if (!check::kMcEnabled)                                         \
      GTEST_SKIP() << "needs a GCOL_MC build (modelcheck preset)";  \
  } while (0)

// Acceptance (a): exhaustive exploration of a <=6-vertex BGPC fixture
// with 2 virtual threads, zero violations on clean kernels.
TEST(McExplore, ExhaustiveCleanSingleNet) {
  GCOL_MC_ONLY();
  const BipartiteGraph g = testing::single_net(3);
  McOptions opts = mc_options(ExploreMode::kExhaustive);
  const McResult res = model_check_bgpc(g, bgpc_preset("V-V"), {}, opts);
  SCOPED_TRACE(res.summary());
  EXPECT_TRUE(res.clean());
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.budget_exhausted);
  EXPECT_EQ(res.max_team, 2);
  EXPECT_GE(res.schedules_explored, 2u);
}

// The 6-vertex corner of the corpus: tractable for the hash-pruned
// exhaustive DFS (the per-decision state space is small even though the
// raw schedule count is astronomical).
TEST(McExplore, ExhaustiveCleanDisjointNets) {
  GCOL_MC_ONLY();
  const BipartiteGraph g = testing::disjoint_nets(2, 3);  // 6 vertices
  McOptions opts = mc_options(ExploreMode::kExhaustive);
  const McResult res = model_check_bgpc(g, bgpc_preset("V-V"), {}, opts);
  SCOPED_TRACE(res.summary());
  EXPECT_TRUE(res.clean());
  EXPECT_TRUE(res.complete);
}

TEST(McExplore, DporCleanSingleNet) {
  GCOL_MC_ONLY();
  const BipartiteGraph g = testing::single_net(3);
  McOptions opts = mc_options(ExploreMode::kDpor);
  const McResult res = model_check_bgpc(g, bgpc_preset("V-V"), {}, opts);
  SCOPED_TRACE(res.summary());
  EXPECT_TRUE(res.clean());
  EXPECT_TRUE(res.complete);
}

// The net-based kernels (Algs. 7/8) run through the same seam.
TEST(McExplore, DporCleanNetKernels) {
  GCOL_MC_ONLY();
  const BipartiteGraph g = testing::single_net(3);
  McOptions opts = mc_options(ExploreMode::kDpor);
  const McResult res = model_check_bgpc(g, bgpc_preset("N1-N2"), {}, opts);
  SCOPED_TRACE(res.summary());
  EXPECT_TRUE(res.clean());
  EXPECT_TRUE(res.complete);
}

TEST(McExplore, DporCleanD2gc) {
  GCOL_MC_ONLY();
  const Graph g = build_graph(testing::path_coo(4));
  McOptions opts = mc_options(ExploreMode::kDpor);
  const McResult res = model_check_d2gc(g, d2gc_preset("V-V"), {}, opts);
  SCOPED_TRACE(res.summary());
  EXPECT_TRUE(res.clean());
  EXPECT_TRUE(res.complete);
}

// D2GC's net kernels (Algs. 9/10): the closed view's center step runs
// inside the same schedule points as the BGPC net kernels.
TEST(McExplore, DporCleanD2gcNetKernels) {
  GCOL_MC_ONLY();
  const Graph g = build_graph(testing::path_coo(4));
  McOptions opts = mc_options(ExploreMode::kDpor);
  const McResult res = model_check_d2gc(g, d2gc_preset("N1-N2"), {}, opts);
  SCOPED_TRACE(res.summary());
  EXPECT_TRUE(res.clean());
  EXPECT_TRUE(res.complete);
}

TEST(McExplore, RandomFuzzCleanAndSeedStable) {
  GCOL_MC_ONLY();
  const BipartiteGraph g = testing::disjoint_nets(2, 2);
  McOptions opts = mc_options(ExploreMode::kRandom);
  opts.seed = 42;
  opts.random_schedules = 64;
  const McResult a = model_check_bgpc(g, bgpc_preset("V-V"), {}, opts);
  SCOPED_TRACE(a.summary());
  EXPECT_TRUE(a.clean());
  EXPECT_FALSE(a.complete);  // sampling proves nothing about coverage
  EXPECT_TRUE(a.budget_exhausted);
  EXPECT_EQ(a.schedules_explored, 64u);
  // Same seed, same campaign.
  const McResult b = model_check_bgpc(g, bgpc_preset("V-V"), {}, opts);
  EXPECT_EQ(a.decisions_total, b.decisions_total);
}

// Acceptance (b): a seeded FaultPlan stale write — the exact escape
// ThreadSanitizer provably cannot flag, because the corrupting store is
// a single-threaded post-round write — is reported as an
// escaped-conflict violation with a replayable trace.
TEST(McExplore, FaultPlanEscapeFoundWithTrace) {
  GCOL_MC_ONLY();
  const BipartiteGraph g = testing::single_net(3);
  FaultPlan faults;
  faults.seed = 7;
  faults.stale_color_rate = 1.0;
  ColoringOptions base = bgpc_preset("V-V");
  FaultInjector inject(faults);
  base.hooks = {&inject};

  McOptions opts = mc_options(ExploreMode::kDpor);
  const McResult res = model_check_bgpc(g, base, {}, opts);
  SCOPED_TRACE(res.summary());
  ASSERT_FALSE(res.violations.empty());
  EXPECT_EQ(res.violations.front().kind, McViolationKind::kEscapedConflict);
  EXPECT_FALSE(res.witness.label.empty());

  // The witness replays to the identical violation, deterministically.
  McOptions ropts = mc_options(ExploreMode::kReplay);
  ropts.replay = res.witness;
  ropts.minimize = false;
  const McResult r1 = model_check_bgpc(g, base, {}, ropts);
  const McResult r2 = model_check_bgpc(g, base, {}, ropts);
  ASSERT_FALSE(r1.violations.empty());
  ASSERT_FALSE(r2.violations.empty());
  EXPECT_TRUE(r1.violations.front().same_shape(res.violations.front()));
  EXPECT_TRUE(r2.violations.front().same_shape(res.violations.front()));
  EXPECT_EQ(r1.witness.choices, r2.witness.choices);

  // And survives the on-disk round trip (the --mc-replay file path).
  const std::string path = ::testing::TempDir() + "gcol_mc_witness.mctrace";
  check::write_trace_file(res.witness, path);
  McOptions fopts = mc_options(ExploreMode::kReplay);
  fopts.replay = check::read_trace_file(path);
  fopts.minimize = false;
  const McResult r3 = model_check_bgpc(g, base, {}, fopts);
  std::remove(path.c_str());
  ASSERT_FALSE(r3.violations.empty());
  EXPECT_TRUE(r3.violations.front().same_shape(res.violations.front()));
}

// The same escape hunt on the D2GC engine.
TEST(McExplore, FaultPlanEscapeFoundD2gc) {
  GCOL_MC_ONLY();
  const Graph g = build_graph(testing::path_coo(4));
  FaultPlan faults;
  faults.seed = 3;
  faults.stale_color_rate = 1.0;
  ColoringOptions base = d2gc_preset("V-V");
  FaultInjector inject(faults);
  base.hooks = {&inject};
  McOptions opts = mc_options(ExploreMode::kDpor);
  const McResult res = model_check_d2gc(g, base, {}, opts);
  SCOPED_TRACE(res.summary());
  ASSERT_FALSE(res.violations.empty());
  EXPECT_EQ(res.violations.front().kind, McViolationKind::kEscapedConflict);
}

// The DPOR reduction must not change the verdict, only the work: the
// reduced exploration agrees with ground-truth exhaustive (hash pruning
// off — with it on, "exhaustive" is itself a reduction) on a clean
// fixture, while exploring no more schedules.
TEST(McExplore, DporAgreesWithExhaustive) {
  GCOL_MC_ONLY();
  const BipartiteGraph g = testing::single_net(2);
  McOptions ground_truth = mc_options(ExploreMode::kExhaustive);
  ground_truth.hash_prune = false;
  const McResult full =
      model_check_bgpc(g, bgpc_preset("V-V"), {}, ground_truth);
  const McResult reduced = model_check_bgpc(
      g, bgpc_preset("V-V"), {}, mc_options(ExploreMode::kDpor));
  SCOPED_TRACE(full.summary() + " | " + reduced.summary());
  EXPECT_TRUE(full.clean());
  EXPECT_TRUE(reduced.clean());
  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(reduced.complete);
  EXPECT_LE(reduced.schedules_explored, full.schedules_explored);
}

}  // namespace
}  // namespace gcol
