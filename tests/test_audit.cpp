// Speculative-race auditor tests.
//
// The headline property: a conflict that escapes conflict removal is a
// *logic* bug, not a data race — every access involved is a relaxed
// atomic, so ThreadSanitizer has nothing to flag (the tsan preset runs
// the fault-injection suite race-clean). The auditor checks the
// semantic property instead: these tests seed exactly such a bug with
// FaultPlan stale-write injection and require the auditor to catch it,
// in every build mode.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "greedcolor/analyze/audit.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/robust/verified.hpp"

namespace gcol {
namespace {

BipartiteGraph audit_bipartite(std::uint64_t seed) {
  return build_bipartite(gen_random_bipartite(150, 120, 900, seed));
}

Graph audit_symmetric(std::uint64_t seed) {
  Coo coo = gen_random_bipartite(160, 160, 800, seed);
  coo.symmetrize();
  return build_graph(coo);
}

TEST(AuditBgpc, CleanRunReportsClean) {
  const BipartiteGraph g = audit_bipartite(0xAB1);
  for (const auto& name : {"V-V", "V-Ninf", "N1-N2"}) {
    audit::AuditContext ctx;
    ColoringOptions opt = bgpc_preset(name);
    opt.num_threads = 4;
    opt.hooks = {&ctx};
    const auto r = color_bgpc(g, opt);
    EXPECT_TRUE(is_valid_bgpc(g, r.colors)) << name;
    const auto& rep = ctx.report();
    EXPECT_TRUE(rep.clean()) << name << ": " << rep.summary();
    EXPECT_EQ(rep.escaped_conflicts, 0u) << name;
    EXPECT_EQ(rep.rounds_audited, r.rounds) << name;
    EXPECT_TRUE(rep.violations.empty()) << name;
  }
}

TEST(AuditBgpc, LedgersRecordSpeculationInAuditBuilds) {
  const BipartiteGraph g = audit_bipartite(0xAB2);
  audit::AuditContext ctx;
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 4;
  opt.hooks = {&ctx};
  const auto r = color_bgpc(g, opt);
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));
  const auto& rep = ctx.report();
  if constexpr (audit::kAuditEnabled) {
    // Every vertex gets at least one speculative store, and coloring
    // reads neighbor colors throughout.
    EXPECT_GE(rep.writes_recorded,
              static_cast<std::uint64_t>(g.num_vertices()));
    EXPECT_GT(rep.reads_recorded, 0u);
  } else {
    EXPECT_EQ(rep.writes_recorded, 0u);
    EXPECT_EQ(rep.reads_recorded, 0u);
  }
}

// The acceptance-criteria test: a seeded escaped-conflict bug (stale
// speculative writes landing after conflict removal) that produces no
// data race whatsoever — invisible to tsan — must be caught by the
// auditor in any build mode.
TEST(AuditBgpc, SeededEscapedConflictIsCaught) {
  const BipartiteGraph g = audit_bipartite(0xAB3);
  const FaultPlan plan = FaultPlan::parse("seed=5,stale=0.3");
  audit::AuditContext ctx;
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  FaultInjector inject(plan);
  opt.hooks = {&inject, &ctx};
  const auto r = color_bgpc(g, opt);
  ASSERT_GT(r.faults_injected, 0) << "plan injected nothing";
  const auto& rep = ctx.report();
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.escaped_conflicts, 0u);
  ASSERT_FALSE(rep.violations.empty());
  const auto& v = rep.violations.front();
  EXPECT_NE(v.a, v.b);
  EXPECT_GE(v.color, 0);
  EXPECT_FALSE(v.to_string().empty());
}

TEST(AuditBgpc, FailFastThrowsTypedError) {
  const BipartiteGraph g = audit_bipartite(0xAB4);
  const FaultPlan plan = FaultPlan::parse("seed=7,stale=0.4");
  audit::AuditContext ctx({.fail_fast = true});
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  FaultInjector inject(plan);
  opt.hooks = {&inject, &ctx};
  try {
    (void)color_bgpc(g, opt);
    FAIL() << "fail_fast auditor did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternalInvariant);
  }
  // end_run ran on the throw: no context may be left installed.
  EXPECT_EQ(audit::active(), nullptr);
}

TEST(AuditBgpc, VerifiedEntryRepairsWhatTheAuditorSaw) {
  // The auditor observes the corruption mid-run; the verified wrapper
  // still delivers a valid final coloring. Both reports are true.
  const BipartiteGraph g = audit_bipartite(0xAB5);
  const FaultPlan plan = FaultPlan::parse("seed=9,stale=0.3");
  audit::AuditContext ctx;
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  FaultInjector inject(plan);
  opt.hooks = {&inject, &ctx};
  const auto r = color_bgpc_verified(g, opt);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  EXPECT_GT(ctx.report().escaped_conflicts, 0u);
}

TEST(AuditBgpc, ScopeRestoresAndReportAccumulates) {
  const BipartiteGraph g = audit_bipartite(0xAB6);
  audit::AuditContext ctx;
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  opt.hooks = {&ctx};
  const auto r1 = color_bgpc(g, opt);
  const int after_first = ctx.report().rounds_audited;
  EXPECT_EQ(after_first, r1.rounds);
  const auto r2 = color_bgpc(g, opt);
  EXPECT_EQ(ctx.report().rounds_audited, after_first + r2.rounds);
  EXPECT_TRUE(ctx.report().clean());
  EXPECT_EQ(audit::active(), nullptr);
}

TEST(AuditD2gc, CleanRunReportsClean) {
  const Graph g = audit_symmetric(0xD21);
  for (const auto& name : {"V-V-64D", "N1-N2"}) {
    audit::AuditContext ctx;
    ColoringOptions opt = d2gc_preset(name);
    opt.num_threads = 4;
    opt.hooks = {&ctx};
    const auto r = color_d2gc(g, opt);
    EXPECT_TRUE(is_valid_d2gc(g, r.colors)) << name;
    EXPECT_TRUE(ctx.report().clean())
        << name << ": " << ctx.report().summary();
    EXPECT_EQ(ctx.report().rounds_audited, r.rounds) << name;
  }
}

TEST(AuditD2gc, SeededEscapedConflictIsCaught) {
  const Graph g = audit_symmetric(0xD22);
  const FaultPlan plan = FaultPlan::parse("seed=11,stale=0.3");
  audit::AuditContext ctx;
  ColoringOptions opt = d2gc_preset("V-V-64D");
  opt.num_threads = 2;
  FaultInjector inject(plan);
  opt.hooks = {&inject, &ctx};
  const auto r = color_d2gc(g, opt);
  ASSERT_GT(r.faults_injected, 0) << "plan injected nothing";
  EXPECT_FALSE(ctx.report().clean());
  EXPECT_GT(ctx.report().escaped_conflicts, 0u);
}

// Speculative D1GC runs on the same engine, so the auditor sweeps its
// edges after every round.
TEST(AuditD1gc, CleanRunReportsClean) {
  const Graph g = audit_symmetric(0xD11);
  audit::AuditContext ctx;
  ColoringOptions opt = bgpc_preset("V-V-64D");
  opt.num_threads = 4;
  opt.hooks = {&ctx};
  const auto r = color_d1gc(g, opt);
  EXPECT_TRUE(is_valid_d1gc(g, r.colors));
  EXPECT_TRUE(ctx.report().clean()) << ctx.report().summary();
  EXPECT_EQ(ctx.report().rounds_audited, r.rounds);
}

TEST(AuditD1gc, SeededEscapedConflictIsCaught) {
  const Graph g = audit_symmetric(0xD12);
  const FaultPlan plan = FaultPlan::parse("seed=11,stale=0.3");
  audit::AuditContext ctx;
  ColoringOptions opt = bgpc_preset("V-V-64D");
  opt.num_threads = 2;
  FaultInjector inject(plan);
  opt.hooks = {&inject, &ctx};
  const auto r = color_d1gc(g, opt);
  ASSERT_GT(r.faults_injected, 0) << "plan injected nothing";
  EXPECT_GT(ctx.report().escaped_conflicts, 0u);
}

// Registry contention: many threads race their own audited colorings.
// The first-wins install contract promises (a) no UB / torn registry,
// (b) every context still gets its full per-round sweep (that path does
// not go through the registry), (c) nothing is left installed after the
// last run ends.
TEST(AuditScopeTest, ConcurrentAttachDetachIsSafe) {
  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::array<audit::AuditContext, kThreads> ctxs;
  std::array<int, kThreads> rounds{};
  std::array<bool, kThreads> valid{};
  valid.fill(true);
  {
    std::array<std::thread, kThreads> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool[static_cast<std::size_t>(t)] = std::thread([&, t] {
        const BipartiteGraph g =
            audit_bipartite(0xC0 + static_cast<std::uint64_t>(t));
        ColoringOptions opt = bgpc_preset("V-V");
        opt.num_threads = 2;
        opt.hooks = {&ctxs[static_cast<std::size_t>(t)]};
        for (int i = 0; i < kIters; ++i) {
          const auto r = color_bgpc(g, opt);
          valid[static_cast<std::size_t>(t)] =
              valid[static_cast<std::size_t>(t)] &&
              is_valid_bgpc(g, r.colors);
          rounds[static_cast<std::size_t>(t)] += r.rounds;
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const auto& rep = ctxs[static_cast<std::size_t>(t)].report();
    EXPECT_TRUE(valid[static_cast<std::size_t>(t)]) << "thread " << t;
    EXPECT_TRUE(rep.clean()) << "thread " << t << ": " << rep.summary();
    // The sweep layer is per-context and registry-independent: every
    // round of every coloring was audited even when the run lost the
    // ledger-hook registry to a sibling.
    EXPECT_EQ(rep.rounds_audited, rounds[static_cast<std::size_t>(t)])
        << "thread " << t;
  }
  EXPECT_EQ(audit::active(), nullptr);
}

// Overflow policy: a reservation the round outruns must reallocate and
// keep recording (grow-never-drop), with the growth surfaced in the
// report rather than silently absorbed.
TEST(AuditLedger, OverflowGrowsAndNeverDrops) {
  const BipartiteGraph g = audit_bipartite(0xAB8);
  audit::AuditContext ctx({.ledger_reserve = 1});
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  opt.hooks = {&ctx};
  const auto r = color_bgpc(g, opt);
  ASSERT_TRUE(is_valid_bgpc(g, r.colors));
  const auto& rep = ctx.report();
  EXPECT_TRUE(rep.clean()) << rep.summary();
  if constexpr (audit::kAuditEnabled) {
    // Far more than one write per thread happens, so a one-slot
    // reservation must have grown — and despite that, every
    // speculative store is still accounted for (degree-0 vertices are
    // colored outside the kernels and never hit the hooks).
    EXPECT_GT(rep.ledger_growths, 0u) << rep.summary();
    std::uint64_t kernel_colored = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      if (g.vertex_degree(v) > 0) ++kernel_colored;
    EXPECT_GE(rep.writes_recorded, kernel_colored) << rep.summary();
  } else {
    EXPECT_EQ(rep.ledger_growths, 0u);
    EXPECT_EQ(rep.writes_recorded, 0u);
  }
}

TEST(AuditReport, SummaryAndViolationFormat) {
  const BipartiteGraph g = audit_bipartite(0xAB7);
  const FaultPlan plan = FaultPlan::parse("seed=13,stale=0.4");
  audit::AuditContext ctx;
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  FaultInjector inject(plan);
  opt.hooks = {&inject, &ctx};
  (void)color_bgpc(g, opt);
  const auto& rep = ctx.report();
  ASSERT_FALSE(rep.violations.empty());
  const std::string s = rep.summary();
  EXPECT_NE(s.find("escaped"), std::string::npos) << s;
  EXPECT_LE(rep.violations.size(), std::size_t{32});  // default cap
}

}  // namespace
}  // namespace gcol
