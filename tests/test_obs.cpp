// gcol-trace / metrics / run-report tests: ring semantics (overflow
// drops oldest, counted), span nesting under a forced 1-thread run,
// Chrome-trace balance under multi-thread and adversarial input, the
// MetricsRegistry adapters, and the gcol-report-v1 envelope. The
// GCOL_TRACE=OFF macro contract lives in test_obs_off.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/obs/json.hpp"
#include "greedcolor/obs/metrics.hpp"
#include "greedcolor/obs/report.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/robust/verified.hpp"

namespace gcol::obs {
namespace {

BipartiteGraph small_graph() {
  return build_bipartite(gen_clique_union(600, 250, 2, 40, 1.8, 17));
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(TraceBuffer, OverflowDropsOldestAndCounts) {
  TraceBuffer ring;
  ring.reset(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.name = "x";
    ev.arg = i;
    ring.push(ev);
  }
  EXPECT_EQ(ring.pushed(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto survivors = ring.snapshot();
  ASSERT_EQ(survivors.size(), 8u);
  // Ring semantics: the tail survives, oldest first.
  for (std::size_t i = 0; i < survivors.size(); ++i)
    EXPECT_EQ(survivors[i].arg, 12 + i);
}

TEST(Tracer, RecordsClearsAndCountsDrops) {
  TracerOptions opts;
  opts.ring_capacity = 4;
  Tracer t(opts);
  for (int i = 0; i < 10; ++i) t.instant("tick", i);
  EXPECT_EQ(t.recorded(), 4u);  // survivors
  EXPECT_EQ(t.dropped(), 6u);
  MetricsRegistry m;
  m.record_tracer(t);
  EXPECT_EQ(m.value("trace.events"), 4u);
  EXPECT_EQ(m.value("trace.dropped"), 6u);
  EXPECT_GE(m.value("trace.threads"), 1u);
  t.clear();
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

// Spans from a forced single-thread run obey stack discipline and the
// taxonomy: every <engine>.color / <engine>.conflict span sits inside
// an <engine>.round span, and everything that begins ends. The one
// engine names its spans per view: bgpc, d2gc and d1gc.
void expect_spans_nest(const Tracer& tracer, const std::string& engine,
                       int rounds) {
  SCOPED_TRACE(engine);
  int depth = 0;
  int rounds_open = 0;
  int color_spans = 0;
  int conflict_spans = 0;
  for (const TraceEvent& ev : tracer.events()) {
    const std::string name = ev.name;
    if (ev.phase == TraceEvent::Phase::kBegin) {
      if (name == engine + ".round") ++rounds_open;
      if (name == engine + ".color") {
        ++color_spans;
        EXPECT_EQ(rounds_open, 1) << "color span outside a round";
      }
      if (name == engine + ".conflict") {
        ++conflict_spans;
        EXPECT_EQ(rounds_open, 1) << "conflict span outside a round";
      }
      ++depth;
    } else if (ev.phase == TraceEvent::Phase::kEnd) {
      --depth;
      EXPECT_GE(depth, 0) << "end without begin at " << name;
      if (name == engine + ".round") --rounds_open;
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced spans";
  EXPECT_GE(color_spans, rounds);
  EXPECT_GE(conflict_spans, rounds);
}

TEST(Tracer, SpansNestUnderSingleThreadRun) {
  {
    Tracer tracer;
    ColoringOptions opt = bgpc_preset("N1-N2");
    opt.num_threads = 1;
    opt.tracer = &tracer;
    const auto r = color_bgpc(small_graph(), opt);
    EXPECT_GT(r.num_colors, 0);
    expect_spans_nest(tracer, "bgpc", r.rounds);
  }
  const Graph g = build_graph(gen_mesh2d(30, 30, 1));
  {
    Tracer tracer;
    ColoringOptions opt = d2gc_preset("N1-N2");
    opt.num_threads = 1;
    opt.tracer = &tracer;
    const auto r = color_d2gc(g, opt);
    EXPECT_GT(r.num_colors, 0);
    expect_spans_nest(tracer, "d2gc", r.rounds);
  }
  {
    Tracer tracer;
    ColoringOptions opt = bgpc_preset("V-V");
    opt.num_threads = 1;
    opt.tracer = &tracer;
    const auto r = color_d1gc(g, opt);
    EXPECT_GT(r.num_colors, 0);
    expect_spans_nest(tracer, "d1gc", r.rounds);
  }
}

// The verified entry points record their check as its own span after
// the engine's rounds, so a trace tells the check apart from the engine.
TEST(Tracer, VerifiedRunRecordsCheckSpanAfterEngine) {
  Tracer tracer;
  ColoringOptions opt = d2gc_preset("N1-N2");
  opt.num_threads = 2;
  opt.tracer = &tracer;
  const Graph g = build_graph(gen_mesh2d(30, 30, 1));
  const auto r = color_d2gc_verified(g, opt);
  EXPECT_FALSE(r.degraded);
  int checks = 0;
  bool round_open = false;
  bool after_rounds = false;
  for (const TraceEvent& ev : tracer.events()) {
    const std::string name = ev.name;
    if (name == "d2gc.round") {
      round_open = ev.phase == TraceEvent::Phase::kBegin;
      EXPECT_EQ(checks, 0) << "engine round after the check";
      after_rounds = true;
    }
    if (name == "verify.check" && ev.phase == TraceEvent::Phase::kBegin) {
      EXPECT_FALSE(round_open) << "check inside an engine round";
      EXPECT_EQ(ev.arg, static_cast<std::uint64_t>(g.num_vertices()));
      ++checks;
    }
  }
  EXPECT_TRUE(after_rounds);
  EXPECT_EQ(checks, 1);
  expect_spans_nest(tracer, "d2gc", r.rounds);
}

TEST(Tracer, ChromeTraceBalancedUnderMultiThreadRun) {
  const BipartiteGraph g = small_graph();
  Tracer tracer;
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 4;
  opt.tracer = &tracer;
  (void)color_bgpc(g, opt);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("gcol-trace-chrome-v1"), std::string::npos);
  // The exporter's contract: balanced by construction.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""),
            count_occurrences(json, "\"ph\": \"E\""));
  // Every engine event rides the engine pid.
  EXPECT_GT(count_occurrences(json, "\"pid\": 1"), 0u);
}

// Adversarial input: a begin that never ends and an end that never
// began must still export balanced (close-at-max-ts / skip-orphan).
TEST(Tracer, ChromeTraceBalancesAdversarialInput) {
  Tracer tracer;
  tracer.begin("open.forever", 1);
  tracer.instant("tick", 2);
  tracer.end("never.opened");
  tracer.end("never.opened");
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""),
            count_occurrences(json, "\"ph\": \"E\""));
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""), 1u);
}

TEST(MetricsRegistry, BasicCountersAndFlags) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("a.count", 3);
  m.add("a.count", 2);
  m.set("b.level", 7);
  m.set_flag("c.flag", true);
  EXPECT_EQ(m.value("a.count"), 5u);
  EXPECT_EQ(m.value("b.level"), 7u);
  EXPECT_EQ(m.value("c.flag"), 1u);
  EXPECT_EQ(m.value("missing"), 0u);
  EXPECT_FALSE(m.has("missing"));
  EXPECT_EQ(m.size(), 3u);
}

TEST(MetricsRegistry, RecordResultMatchesRun) {
  const BipartiteGraph g = small_graph();
  const auto r = color_bgpc_verified(g, bgpc_preset("N1-N2"));
  MetricsRegistry m;
  m.record_result(r);
  EXPECT_EQ(m.value("core.colors"), static_cast<std::uint64_t>(r.num_colors));
  EXPECT_EQ(m.value("core.rounds"), static_cast<std::uint64_t>(r.rounds));
  EXPECT_EQ(m.value("core.color.colored"),
            r.total_color_counters().colored);
  EXPECT_EQ(m.value("core.conflict.conflicts"),
            r.total_conflict_counters().conflicts);
}

TEST(Json, OrderedWriterEscapesAndNests) {
  Json root = Json::object();
  root.set("b", 1);
  root.set("a", "quote\"back\\slash\nnewline");
  Json arr = Json::array();
  arr.push_back(true);
  arr.push_back(Json());
  arr.push_back(2.5);
  root.set("arr", std::move(arr));
  root.set("b", 9);  // replace keeps first-insertion order
  const std::string s = root.dump();
  EXPECT_LT(s.find("\"b\""), s.find("\"a\""));
  EXPECT_NE(s.find("quote\\\"back\\\\slash\\nnewline"), std::string::npos);
  EXPECT_NE(s.find("[\n    true,\n    null,\n    2.5\n  ]"),
            std::string::npos);
  EXPECT_NE(s.find("\"b\": 9"), std::string::npos);
}

TEST(RunReport, FingerprintIsStableAndContentSensitive) {
  const BipartiteGraph a = small_graph();
  const BipartiteGraph b = small_graph();
  const BipartiteGraph c =
      build_bipartite(gen_clique_union(600, 250, 2, 40, 1.8, 18));
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
  const std::string fp = fingerprint_string(a);
  EXPECT_EQ(fp.size(), 25u) << fp;
  EXPECT_EQ(fp.rfind("fnv1a64w:", 0), 0u) << fp;
  EXPECT_EQ(fp.find_first_not_of("0123456789abcdef", 9), std::string::npos)
      << fp;
}

// Pinned values: any change to the hash (word order, seed, prime, the
// arrays it covers) must show up here and be made on purpose.
TEST(RunReport, FingerprintValuesArePinned) {
  // Vertex 0 in net 0, vertex 1 in nets 0 and 1.
  const BipartiteGraph b(2, 2, {0, 1, 3}, {0, 0, 1}, {0, 2, 3}, {0, 1, 1});
  ASSERT_TRUE(b.validate());
  EXPECT_EQ(fingerprint_string(b), "fnv1a64w:142acd77c8ff6f2b");
  // The path 0-1-2.
  const Graph p(3, {0, 1, 3, 4}, {1, 0, 2, 1});
  ASSERT_TRUE(p.validate());
  EXPECT_EQ(fingerprint_string(p), "fnv1a64w:8529f1f391fbabbe");
}

TEST(RunReport, EnvelopeCarriesSections) {
  const BipartiteGraph g = small_graph();
  Tracer tracer;
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.tracer = &tracer;
  const auto r = color_bgpc_verified(g, opt);

  RunReport rep("test_obs");
  rep.set_option("algo", "N1-N2");
  rep.set_graph(g);
  rep.set_coloring(r);
  MetricsRegistry m;
  m.record_result(r);
  m.record_tracer(tracer);
  rep.set_metrics(m);
  rep.set_tracer(tracer);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"schema\": \"gcol-report-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"test_obs\""), std::string::npos);
  for (const char* section :
       {"\"options\"", "\"graph\"", "\"totals\"", "\"rounds\"",
        "\"degradation\"", "\"metrics\"", "\"trace\""})
    EXPECT_NE(json.find(section), std::string::npos) << section;
  EXPECT_NE(json.find("\"fingerprint\": \"fnv1a64w:"), std::string::npos);
}

}  // namespace
}  // namespace gcol::obs
