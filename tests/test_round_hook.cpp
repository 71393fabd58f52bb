// The engine's round-hook seam and the shared escaped-conflict sweep.
//
// Hook seam: a recording RoundHook attached beside a FaultInjector and
// an AuditContext sees begin_run once, one begin_round/end_round pair
// per round, and end_run once, in list order, on all three engines, and
// end_run still runs when a fail_fast auditor throws.
//
// Sweep: on random partial colorings over all three views the sweep is
// compared with a brute-force pairwise oracle written here.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "greedcolor/analyze/audit.hpp"
#include "greedcolor/analyze/escaped.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/round_hook.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/util/prng.hpp"

namespace gcol {
namespace {

BipartiteGraph hook_bipartite(std::uint64_t seed) {
  return build_bipartite(gen_random_bipartite(150, 120, 900, seed));
}

Graph hook_symmetric(std::uint64_t seed) {
  Coo coo = gen_random_bipartite(160, 160, 800, seed);
  coo.symmetrize();
  return build_graph(coo);
}

/// Appends one line per hook call to a log it may share with other
/// hooks: "<tag> run+", "<tag> begin <round>", "<tag> end <round>
/// <engine>", "<tag> run-". end_round reports `overwrites` colors
/// overwritten, without touching any.
class RecordingHook final : public RoundHook {
 public:
  RecordingHook(std::vector<std::string>& log, std::string tag,
                vid_t overwrites = 0)
      : log_(log), tag_(std::move(tag)), overwrites_(overwrites) {}

  void begin_run(int threads) override {
    EXPECT_GE(threads, 1);
    log_.push_back(tag_ + " run+");
  }
  void end_run() override { log_.push_back(tag_ + " run-"); }
  void begin_round(int round, std::span<const color_t> colors) override {
    round_ = round;
    active_auditor = audit::active();
    EXPECT_FALSE(colors.empty());
    log_.push_back(tag_ + " begin " + std::to_string(round));
  }
  vid_t end_round(const BipartiteView& view, std::span<color_t> colors,
                  const std::vector<vid_t>& next_queue) override {
    return record(view, colors, next_queue);
  }
  vid_t end_round(const ClosedView& view, std::span<color_t> colors,
                  const std::vector<vid_t>& next_queue) override {
    return record(view, colors, next_queue);
  }
  vid_t end_round(const Distance1View& view, std::span<color_t> colors,
                  const std::vector<vid_t>& next_queue) override {
    return record(view, colors, next_queue);
  }

  /// audit::active() as seen at the last begin_round.
  audit::AuditContext* active_auditor = nullptr;

 private:
  template <class V>
  vid_t record(const V& view, std::span<color_t> colors,
               const std::vector<vid_t>& next_queue) {
    EXPECT_EQ(colors.size(), static_cast<std::size_t>(view.num_vertices()));
    EXPECT_LE(next_queue.size(), colors.size());
    log_.push_back(tag_ + " end " + std::to_string(round_) + " " +
                   V::kNames.name);
    return overwrites_;
  }

  std::vector<std::string>& log_;
  std::string tag_;
  vid_t overwrites_;
  int round_ = 0;
};

/// The log one hook tagged `tag` must leave for a run of `rounds`
/// rounds on engine `engine`.
std::vector<std::string> expected_log(const std::string& tag, int rounds,
                                      const std::string& engine) {
  std::vector<std::string> log{tag + " run+"};
  for (int r = 1; r <= rounds; ++r) {
    log.push_back(tag + " begin " + std::to_string(r));
    log.push_back(tag + " end " + std::to_string(r) + " " + engine);
  }
  log.push_back(tag + " run-");
  return log;
}

TEST(RoundHook, OneCallPerRoundPointOnEveryEngine) {
  const BipartiteGraph b = hook_bipartite(0x501);
  const Graph g = hook_symmetric(0x502);
  const FaultPlan plan = FaultPlan::parse("seed=3,stale=0.05");
  const auto run = [&](const std::string& engine) {
    std::vector<std::string> log;
    FaultInjector inject(plan);
    audit::AuditContext auditor;
    RecordingHook rec(log, "rec");
    ColoringOptions opt =
        engine == "d2gc" ? d2gc_preset("N1-N2") : bgpc_preset("V-V-64D");
    opt.num_threads = 2;
    opt.hooks = {&inject, &auditor, &rec};
    const ColoringResult r = engine == "bgpc"   ? color_bgpc(b, opt)
                             : engine == "d2gc" ? color_d2gc(g, opt)
                                                : color_d1gc(g, opt);
    EXPECT_GE(r.rounds, 1) << engine;
    EXPECT_EQ(log, expected_log("rec", r.rounds, engine)) << engine;
    EXPECT_EQ(auditor.report().rounds_audited, r.rounds) << engine;
    EXPECT_EQ(audit::active(), nullptr) << engine;
  };
  run("bgpc");
  run("d2gc");
  run("d1gc");
}

TEST(RoundHook, HooksRunInListOrderAndOverwritesSum) {
  const BipartiteGraph g = hook_bipartite(0x503);
  std::vector<std::string> log;
  RecordingHook first(log, "A", 1);
  RecordingHook second(log, "B", 2);
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  opt.hooks = {&first, &second};
  const ColoringResult r = color_bgpc(g, opt);
  // Interleave the two expected logs point by point: A then B.
  const auto a = expected_log("A", r.rounds, "bgpc");
  const auto b = expected_log("B", r.rounds, "bgpc");
  std::vector<std::string> want;
  for (std::size_t i = 0; i < a.size(); ++i) {
    want.push_back(a[i]);
    want.push_back(b[i]);
  }
  EXPECT_EQ(log, want);
  // Each end_round's count lands in faults_injected.
  EXPECT_EQ(r.faults_injected, 3 * r.rounds);
}

TEST(RoundHook, AuditorAfterInjectorSeesTheInjectedWrites) {
  const BipartiteGraph g = hook_bipartite(0x504);
  const FaultPlan plan = FaultPlan::parse("seed=5,stale=0.3");
  FaultInjector inject(plan);
  audit::AuditContext auditor;
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  opt.hooks = {&inject, &auditor};
  const ColoringResult r = color_bgpc(g, opt);
  ASSERT_GT(r.faults_injected, 0);
  EXPECT_GT(auditor.report().escaped_conflicts, 0u);
}

TEST(RoundHook, FailFastThrowStillEndsTheRun) {
  const BipartiteGraph g = hook_bipartite(0x505);
  const FaultPlan plan = FaultPlan::parse("seed=7,stale=0.4");
  std::vector<std::string> log;
  {
    FaultInjector inject(plan);
    audit::AuditContext auditor({.fail_fast = true});
    RecordingHook rec(log, "rec");
    ColoringOptions opt = bgpc_preset("V-V");
    opt.num_threads = 2;
    opt.hooks = {&inject, &auditor, &rec};
    EXPECT_THROW((void)color_bgpc(g, opt), Error);
    EXPECT_EQ(rec.active_auditor, &auditor);
  }
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log.front(), "rec run+");
  EXPECT_EQ(log.back(), "rec run-");
  // The auditor threw before `rec` saw the round end.
  const std::string& last_point = log[log.size() - 2];
  EXPECT_EQ(last_point.rfind("rec begin ", 0), 0u) << last_point;
  EXPECT_EQ(audit::active(), nullptr);

  // The registry is free again: the next audited coloring installs, and
  // a fail_fast context that threw before lets a clean run finish.
  log.clear();
  audit::AuditContext auditor;
  audit::AuditContext thrown_before({.fail_fast = true});
  {
    FaultInjector inject(plan);
    ColoringOptions opt = bgpc_preset("V-V");
    opt.num_threads = 2;
    opt.hooks = {&inject, &thrown_before};
    EXPECT_THROW((void)color_bgpc(g, opt), Error);
  }
  RecordingHook rec(log, "rec");
  ColoringOptions opt = bgpc_preset("V-V");
  opt.num_threads = 2;
  opt.hooks = {&auditor, &thrown_before, &rec};
  const ColoringResult r = color_bgpc(g, opt);
  EXPECT_EQ(rec.active_auditor, &auditor);
  EXPECT_EQ(log, expected_log("rec", r.rounds, "bgpc"));
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();
  EXPECT_EQ(audit::active(), nullptr);
}

TEST(RoundHook, NullHookIsRejected) {
  const BipartiteGraph g = hook_bipartite(0x506);
  ColoringOptions opt = bgpc_preset("V-V");
  opt.hooks = {nullptr};
  EXPECT_THROW((void)color_bgpc(g, opt), std::invalid_argument);
}

// ---- the shared escaped-conflict sweep vs a pairwise oracle ------------

struct Report {
  vid_t a, b, via;
  color_t color;
};

template <class V>
std::vector<Report> sweep(const V& view, const std::vector<color_t>& c) {
  std::vector<Report> out;
  audit::for_each_escaped_conflict(
      view, c.data(), [&](vid_t a, vid_t b, vid_t via, color_t col) {
        out.push_back({a, b, via, col});
      });
  return out;
}

bool contains(std::span<const vid_t> list, vid_t x) {
  return std::find(list.begin(), list.end(), x) != list.end();
}

/// Are x != y adjacent under the view? Written from the problem
/// definitions, not from the nets the sweep walks.
bool adjacent(const BipartiteView& view, vid_t x, vid_t y) {
  for (const vid_t v : view.g.nets(x))
    if (contains(view.g.nets(y), v)) return true;
  return false;
}
bool adjacent(const ClosedView& view, vid_t x, vid_t y) {
  if (contains(view.g.neighbors(x), y)) return true;
  for (const vid_t z : view.g.neighbors(x))
    if (contains(view.g.neighbors(z), y)) return true;
  return false;
}
bool adjacent(const Distance1View& view, vid_t x, vid_t y) {
  return contains(view.g.neighbors(x), y);
}

/// Do x and y meet through `via` as the sweep reports it?
bool meets_via(const BipartiteView& view, vid_t x, vid_t y, vid_t via) {
  return via >= 0 && via < view.g.num_nets() &&
         contains(view.g.vtxs(via), x) && contains(view.g.vtxs(via), y);
}
bool meets_via(const ClosedView& view, vid_t x, vid_t y, vid_t via) {
  const auto in_closed = [&](vid_t u) {
    return u == via || contains(view.g.neighbors(via), u);
  };
  return via >= 0 && via < view.g.num_vertices() && in_closed(x) &&
         in_closed(y);
}
bool meets_via(const Distance1View& view, vid_t x, vid_t y, vid_t via) {
  return (via == x || via == y) && contains(view.g.neighbors(x), y);
}

template <class V>
void check_against_oracle(const V& view, const std::vector<color_t>& c,
                          const std::string& what) {
  const vid_t n = view.num_vertices();
  std::set<vid_t> clashing;
  for (vid_t x = 0; x < n; ++x)
    for (vid_t y = x + 1; y < n; ++y)
      if (c[static_cast<std::size_t>(x)] != kNoColor &&
          c[static_cast<std::size_t>(x)] == c[static_cast<std::size_t>(y)] &&
          adjacent(view, x, y)) {
        clashing.insert(x);
        clashing.insert(y);
      }
  const std::vector<Report> found = sweep(view, c);
  EXPECT_EQ(found.empty(), clashing.empty()) << what;
  std::set<vid_t> reported;
  for (const Report& r : found) {
    EXPECT_NE(r.a, r.b) << what;
    EXPECT_NE(r.color, kNoColor) << what;
    EXPECT_EQ(c[static_cast<std::size_t>(r.a)], r.color) << what;
    EXPECT_EQ(c[static_cast<std::size_t>(r.b)], r.color) << what;
    EXPECT_TRUE(meets_via(view, r.a, r.b, r.via))
        << what << ": " << r.a << " and " << r.b << " via " << r.via;
    reported.insert(r.a);
    reported.insert(r.b);
  }
  for (const vid_t x : clashing)
    EXPECT_TRUE(reported.count(x)) << what << ": vertex " << x << " missed";
}

/// A random partial coloring: colors in [0, k), each vertex uncolored
/// with probability 1/3.
std::vector<color_t> random_partial(vid_t n, color_t k, std::uint64_t seed) {
  std::vector<color_t> c(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    const std::uint64_t h = mix64(seed * 0x9e3779b97f4a7c15ULL +
                                  static_cast<std::uint64_t>(v));
    c[static_cast<std::size_t>(v)] =
        h % 3 == 0 ? kNoColor : static_cast<color_t>((h >> 8) % k);
  }
  return c;
}

/// `c` with every vertex whose hash hits 1/4 uncolored.
std::vector<color_t> punch_holes(std::vector<color_t> c, std::uint64_t seed) {
  for (std::size_t v = 0; v < c.size(); ++v)
    if (mix64(seed ^ (v * 0x9e3779b97f4a7c15ULL)) % 4 == 0) c[v] = kNoColor;
  return c;
}

TEST(EscapedSweep, MatchesPairwiseOracleOnEveryView) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const BipartiteGraph b =
        build_bipartite(gen_random_bipartite(40, 48, 150, seed));
    Coo coo = gen_random_bipartite(45, 45, 90, seed + 100);
    coo.symmetrize();
    const Graph g = build_graph(coo);
    const std::string tag = "seed " + std::to_string(seed);
    for (const color_t k : {2, 5, 12}) {
      const std::string what = tag + " k=" + std::to_string(k);
      check_against_oracle(BipartiteView{b},
                           random_partial(b.num_vertices(), k, seed * k),
                           "bgpc " + what);
      check_against_oracle(ClosedView{g},
                           random_partial(g.num_vertices(), k, seed * k + 1),
                           "d2gc " + what);
      check_against_oracle(Distance1View{g},
                           random_partial(g.num_vertices(), k, seed * k + 2),
                           "d1gc " + what);
    }
    // Valid colorings with holes: the oracle and the sweep find nothing.
    ColoringOptions opt = bgpc_preset("V-V");
    opt.num_threads = 1;
    check_against_oracle(BipartiteView{b},
                         punch_holes(color_bgpc(b, opt).colors, seed),
                         "valid bgpc " + tag);
    check_against_oracle(ClosedView{g},
                         punch_holes(color_d2gc(g, opt).colors, seed),
                         "valid d2gc " + tag);
    check_against_oracle(Distance1View{g},
                         punch_holes(color_d1gc(g, opt).colors, seed),
                         "valid d1gc " + tag);
  }
}

}  // namespace
}  // namespace gcol
