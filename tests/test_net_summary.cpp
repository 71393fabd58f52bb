// The large nets' color summaries (NetSummaries, src/core/src/
// phase_kernels.hpp) against the exact distance-2 walk they stand in for.
//
// With one thread, Alg. 4 over the summaries must pick the color the
// exact walk picks, with the same probe count and the same logical
// edges_visited. The inputs put nets just below, at and above the
// large-net threshold, leave some vertices in no net at all, and pre-color
// vertices with colors at and beyond the summary cap, so the picks that
// must fall back to the exact walk are covered too. With 2 and 4 threads
// the colorings must be valid.
//
// The repeat bits must mark exactly the colors below the cap that two or
// more members of a large net hold, after a rebuild and after a parallel
// color phase, and Alg. 5 over the summaries (which skips the large nets
// where the vertex's color does not repeat) must uncolor, queue and count
// exactly what the walk over every net does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "phase_kernels.hpp"

namespace gcol {
namespace {

using detail::NetSummaries;
using detail::PolicyState;

/// A fixed-arithmetic generator, so the inputs do not depend on the
/// standard library's distributions.
struct Lcg {
  std::uint64_t s;
  std::uint32_t below(std::uint32_t bound) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>((s >> 33) % bound);
  }
};

/// `count` distinct ids from [0, n), by a partial Fisher-Yates shuffle.
std::vector<vid_t> sample(Lcg& rng, vid_t n, vid_t count) {
  std::vector<vid_t> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), vid_t{0});
  for (vid_t i = 0; i < count; ++i)
    std::swap(ids[static_cast<std::size_t>(i)],
              ids[static_cast<std::size_t>(
                  i + static_cast<vid_t>(rng.below(
                          static_cast<std::uint32_t>(n - i))))]);
  ids.resize(static_cast<std::size_t>(count));
  return ids;
}

// With L <= 256 the cap is at most 1024 colors (16 words), so the
// large-net threshold is 64 members on both inputs below.
constexpr std::size_t kThreshold = 64;

/// BGPC: 420 vertices, the last 20 in no net. Net sizes 63, 64 and 65
/// sit just below, at and above the threshold; the rest are small nets
/// and larger ones (L = 180).
BipartiteGraph threshold_bgpc() {
  const vid_t n = 420;
  const vid_t in_nets = 400;
  const vid_t sizes[] = {63, 64, 65, 180, 12, 3, 40, 63, 64, 65, 2, 90};
  Lcg rng{0x5EEDu};
  Coo coo;
  coo.num_cols = n;
  vid_t net = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (const vid_t size : sizes) {
      for (const vid_t u : sample(rng, in_nets, size)) coo.add(net, u);
      ++net;
    }
  }
  coo.num_rows = net;
  return build_bipartite(std::move(coo));
}

/// D2GC: 500 vertices, the last 10 isolated, a ring through the rest,
/// and hubs whose closed neighborhoods N[h] have 63, 64, 65, 101 and
/// 150 members.
Graph threshold_d2gc() {
  const vid_t n = 500;
  const vid_t ring = 490;
  const vid_t degrees[] = {62, 63, 64, 149, 62, 63, 64, 100};
  std::vector<std::set<vid_t>> adj(static_cast<std::size_t>(n));
  const auto link = [&](vid_t a, vid_t b) {
    adj[static_cast<std::size_t>(a)].insert(b);
    adj[static_cast<std::size_t>(b)].insert(a);
  };
  for (vid_t i = 0; i < ring; ++i) link(i, (i + 1) % ring);
  Lcg rng{0xD2u};
  for (std::size_t h = 0; h < std::size(degrees); ++h) {
    const auto hub = static_cast<vid_t>(60 * h);
    // Leaves never include a hub, so no hub grows past its degree.
    while (adj[static_cast<std::size_t>(hub)].size() <
           static_cast<std::size_t>(degrees[h])) {
      const auto u = static_cast<vid_t>(rng.below(ring));
      if (u % 60 != 0 || u / 60 >= static_cast<vid_t>(std::size(degrees)))
        link(hub, u);
    }
  }
  Coo coo;
  coo.num_rows = coo.num_cols = n;
  for (vid_t a = 0; a < n; ++a)
    for (const vid_t b : adj[static_cast<std::size_t>(a)]) coo.add(a, b);
  return build_graph(std::move(coo));
}

/// BGPC: vertex 0 in five nets of 250 members each, 1,245 distinct
/// neighbors in all. L = 250 puts the cap at 1024 colors, below the
/// color bound of 1,246.
BipartiteGraph beyond_cap_bgpc() {
  Coo coo;
  coo.num_rows = 5;
  coo.num_cols = 1 + 5 * 249;
  for (vid_t net = 0; net < 5; ++net) {
    coo.add(net, 0);
    for (vid_t k = 0; k < 249; ++k) coo.add(net, 1 + net * 249 + k);
  }
  return build_bipartite(std::move(coo));
}

constexpr BalancePolicy kBalances[] = {BalancePolicy::kNone,
                                       BalancePolicy::kB1,
                                       BalancePolicy::kB2};

const char* balance_tag(BalancePolicy b) {
  switch (b) {
    case BalancePolicy::kB1:
      return "B1";
    case BalancePolicy::kB2:
      return "B2";
    case BalancePolicy::kNone:
    default:
      return "none";
  }
}

/// The exact walk's sequential Alg. 4: each vertex of `order` takes
/// pick_vertex_color over forbid_nets, as the engine did before the
/// summaries.
struct Walked {
  std::vector<color_t> colors;
  KernelCounters counters;
};

template <class V, BalancePolicy B>
Walked exact_first_fit(const V& view, std::vector<color_t> colors,
                       const std::vector<vid_t>& order) {
  Walked out;
  MarkerSet f(static_cast<std::size_t>(view.color_bound(1)) + 2);
  PolicyState st;
  for (const vid_t w : order) {
    f.clear();
    out.counters.edges_visited +=
        detail::forbid_nets(view, colors.data(), w, f);
    colors[static_cast<std::size_t>(w)] = detail::pick_vertex_color<B>(
        st, f, w, out.counters.color_probes);
  }
  out.colors = std::move(colors);
  return out;
}

/// Color `order` from `pre` twice, with the exact walk and with the
/// summaries rebuilt from `pre`, and require the same color, probes,
/// entries and policy state at every vertex. Returns how many picks
/// landed at or beyond the cap.
template <class V, BalancePolicy B>
int expect_summaries_match_walk(const V& view, const std::vector<color_t>& pre,
                                const std::vector<vid_t>& order) {
  const color_t bound = view.color_bound(1);
  const NetSummaries s(view, bound);
  EXPECT_TRUE(s.enabled());
  std::vector<color_t> exact = pre;
  std::vector<color_t> fast = pre;
  detail::reset_summaries(view, fast.data(), s, 1);
  MarkerSet f(static_cast<std::size_t>(bound) + 2);
  ThreadWorkspace ws;
  ws.prepare(static_cast<std::size_t>(bound) + 2, 0, s.words_per_net());
  PolicyState st_exact;
  PolicyState st_fast;
  KernelCounters k_exact;
  KernelCounters k_fast;
  int beyond = 0;
  for (const vid_t w : order) {
    f.clear();
    k_exact.edges_visited += detail::forbid_nets(view, exact.data(), w, f);
    const color_t want = detail::pick_vertex_color<B>(st_exact, f, w,
                                                      k_exact.color_probes);
    exact[static_cast<std::size_t>(w)] = want;
    const color_t got =
        detail::color_one_vertex(view, fast.data(), w, s, ws, st_fast, k_fast,
                                 detail::BalanceTag<B>{});
    EXPECT_EQ(got, want) << "vertex " << w;
    EXPECT_EQ(st_fast.col_max, st_exact.col_max) << "vertex " << w;
    EXPECT_EQ(st_fast.col_next, st_exact.col_next) << "vertex " << w;
    if constexpr (kCountersEnabled) {
      EXPECT_EQ(k_fast.edges_visited, k_exact.edges_visited)
          << "vertex " << w;
      EXPECT_EQ(k_fast.color_probes, k_exact.color_probes) << "vertex " << w;
    }
    if (got >= s.cap()) ++beyond;
  }
  return beyond;
}

/// A partial coloring: about a third of the vertices keep a color drawn
/// from [0, 1.5·cap), the rest are uncolored and returned as the order.
template <class V>
std::vector<vid_t> partial_coloring(const V& view, Lcg& rng,
                                    std::vector<color_t>& colors) {
  const NetSummaries s(view, view.color_bound(1));
  const auto top = static_cast<std::uint32_t>(s.cap() + s.cap() / 2);
  colors.assign(static_cast<std::size_t>(view.num_vertices()), kNoColor);
  std::vector<vid_t> order;
  for (vid_t u = 0; u < view.num_vertices(); ++u) {
    if (rng.below(3) == 0)
      colors[static_cast<std::size_t>(u)] =
          static_cast<color_t>(rng.below(top));
    else
      order.push_back(u);
  }
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[rng.below(static_cast<std::uint32_t>(i))]);
  return order;
}

std::vector<vid_t> natural(vid_t n) {
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), vid_t{0});
  return order;
}

TEST(NetSummary, LargeNetsAreThoseAtOrAboveTheThreshold) {
  if constexpr (!detail::kNetSummaries) GTEST_SKIP() << "exact-walk build";
  const BipartiteGraph g = threshold_bgpc();
  const BipartiteView bv{g};
  const NetSummaries bs(bv, bv.color_bound(1));
  ASSERT_TRUE(bs.enabled());
  EXPECT_EQ(bs.cap() % 64, 0);
  EXPECT_EQ(bs.words_per_net() * 64, static_cast<std::size_t>(bs.cap()));
  EXPECT_LE(bs.cap(), 1024);
  std::vector<vid_t> want;
  for (vid_t v = 0; v < g.num_nets(); ++v)
    if (g.vtxs(v).size() >= kThreshold) want.push_back(v);
  EXPECT_EQ(bs.large_nets(), want);
  EXPECT_FALSE(bs.is_large(kThreshold - 1));
  EXPECT_TRUE(bs.is_large(kThreshold));

  const Graph ug = threshold_d2gc();
  const ClosedView cv{ug};
  const NetSummaries cs(cv, cv.color_bound(1));
  ASSERT_TRUE(cs.enabled());
  want.clear();
  std::set<std::size_t> sizes;
  for (vid_t v = 0; v < ug.num_vertices(); ++v) {
    const std::size_t closed = ug.neighbors(v).size() + 1;
    sizes.insert(closed);
    if (closed >= kThreshold) want.push_back(v);
  }
  EXPECT_EQ(cs.large_nets(), want);
  for (const std::size_t edge : {kThreshold - 1, kThreshold, kThreshold + 1})
    EXPECT_EQ(sizes.count(edge), 1u) << "no closed net of size " << edge;
}

TEST(NetSummary, SummaryPicksEqualTheExactWalk) {
  if constexpr (!detail::kNetSummaries) GTEST_SKIP() << "exact-walk build";
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  Lcg rng{0xC0FFEEu};
  for (int trial = 0; trial < 3; ++trial) {
    for (const BalancePolicy b : kBalances) {
      detail::with_balance(b, [&](auto bal) {
        constexpr BalancePolicy B = decltype(bal)::value;
        std::vector<color_t> pre;
        const BipartiteView bv{bg};
        std::vector<vid_t> order = partial_coloring(bv, rng, pre);
        expect_summaries_match_walk<BipartiteView, B>(bv, pre, order);
        const ClosedView cv{ug};
        order = partial_coloring(cv, rng, pre);
        expect_summaries_match_walk<ClosedView, B>(cv, pre, order);
      });
      // From scratch, as round 1 and the sequential baseline run.
      detail::with_balance(b, [&](auto bal) {
        constexpr BalancePolicy B = decltype(bal)::value;
        const BipartiteView bv{bg};
        expect_summaries_match_walk<BipartiteView, B>(
            bv, std::vector<color_t>(bg.num_vertices(), kNoColor),
            natural(bg.num_vertices()));
        const ClosedView cv{ug};
        expect_summaries_match_walk<ClosedView, B>(
            cv, std::vector<color_t>(ug.num_vertices(), kNoColor),
            natural(ug.num_vertices()));
      });
    }
  }
}

TEST(NetSummary, PicksAtOrBeyondTheCapFallBackToTheWalk) {
  if constexpr (!detail::kNetSummaries) GTEST_SKIP() << "exact-walk build";
  const BipartiteGraph g = beyond_cap_bgpc();
  const BipartiteView view{g};
  ASSERT_EQ(NetSummaries(view, view.color_bound(1)).cap(), 1024);
  // Every neighbor of vertex 0 holds a distinct color but 40 of them,
  // which are uncolored and colored after it: vertex 0 must take color
  // 1,205, beyond the cap, and the 40 late ones cross it too.
  Lcg rng{0xCA9u};
  std::vector<vid_t> late = sample(rng, g.num_vertices() - 1, 40);
  for (vid_t& u : late) ++u;
  std::vector<color_t> pre(static_cast<std::size_t>(g.num_vertices()),
                           kNoColor);
  color_t next = 0;
  for (vid_t u = 1; u < g.num_vertices(); ++u)
    if (std::find(late.begin(), late.end(), u) == late.end())
      pre[static_cast<std::size_t>(u)] = next++;
  std::vector<vid_t> order = {0};
  order.insert(order.end(), late.begin(), late.end());
  for (const BalancePolicy b : kBalances) {
    detail::with_balance(b, [&](auto bal) {
      constexpr BalancePolicy B = decltype(bal)::value;
      EXPECT_GT((expect_summaries_match_walk<BipartiteView, B>(view, pre,
                                                               order)),
                0)
          << balance_tag(b);
    });
  }
}

TEST(NetSummary, AColoredVertexTakesTheExactWalk) {
  if constexpr (!detail::kNetSummaries) GTEST_SKIP() << "exact-walk build";
  // A stale write leaves a queued vertex colored; its own color sits in
  // the rebuilt summaries, so only the walk (which skips the vertex
  // itself) gives the right forbidden set.
  const BipartiteGraph g = threshold_bgpc();
  const BipartiteView view{g};
  std::vector<color_t> colors = exact_first_fit<BipartiteView,
                                                BalancePolicy::kNone>(
                                    view,
                                    std::vector<color_t>(g.num_vertices(),
                                                         kNoColor),
                                    natural(g.num_vertices()))
                                    .colors;
  const NetSummaries s(view, view.color_bound(1));
  detail::reset_summaries(view, colors.data(), s, 1);
  ThreadWorkspace ws;
  ws.prepare(static_cast<std::size_t>(view.color_bound(1)) + 2, 0,
             s.words_per_net());
  for (vid_t w = 0; w < g.num_vertices(); w += 7) {
    PolicyState st;
    KernelCounters k;
    const color_t had = colors[static_cast<std::size_t>(w)];
    EXPECT_EQ(detail::color_one_vertex(
                  view, colors.data(), w, s, ws, st, k,
                  detail::BalanceTag<BalancePolicy::kNone>{}),
              had)
        << "vertex " << w;
  }
}

/// Engine runs at one thread against the exact walk: V-V colors every
/// vertex in round 1 in natural order (isolated vertices are colored 0
/// up front), and the sequential baseline walks every vertex.
template <class V>
std::vector<vid_t> with_nets(const V& view) {
  std::vector<vid_t> order;
  for (vid_t u = 0; u < view.num_vertices(); ++u)
    if (!view.nets(u).empty()) order.push_back(u);
  return order;
}

template <class V, BalancePolicy B>
void expect_engine_matches_walk(const V& view, const ColoringResult& r) {
  std::vector<color_t> pre(static_cast<std::size_t>(view.num_vertices()),
                           kNoColor);
  for (vid_t u = 0; u < view.num_vertices(); ++u)
    if (view.nets(u).empty()) pre[static_cast<std::size_t>(u)] = 0;
  const Walked want = exact_first_fit<V, B>(view, pre, with_nets(view));
  EXPECT_EQ(r.colors, want.colors);
  ASSERT_EQ(r.rounds, 1);
  if constexpr (kCountersEnabled) {
    ASSERT_EQ(r.iterations.size(), 1u);
    EXPECT_EQ(r.iterations[0].color_counters.edges_visited,
              want.counters.edges_visited);
    EXPECT_EQ(r.iterations[0].color_counters.color_probes,
              want.counters.color_probes);
  }
}

TEST(NetSummary, SingleThreadVertexRoundEqualsTheWalk) {
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  for (const BalancePolicy b : kBalances) {
    ColoringOptions opt = bgpc_preset("V-V");
    opt.balance = b;
    opt.num_threads = 1;
    const ColoringResult rb = color_bgpc(bg, opt);
    const ColoringResult ru = color_d2gc(ug, opt);
    detail::with_balance(b, [&](auto bal) {
      constexpr BalancePolicy B = decltype(bal)::value;
      expect_engine_matches_walk<BipartiteView, B>(BipartiteView{bg}, rb);
      expect_engine_matches_walk<ClosedView, B>(ClosedView{ug}, ru);
    });
  }
}

TEST(NetSummary, SequentialBaselineEqualsTheWalk) {
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  const Walked wb = exact_first_fit<BipartiteView, BalancePolicy::kNone>(
      BipartiteView{bg}, std::vector<color_t>(bg.num_vertices(), kNoColor),
      natural(bg.num_vertices()));
  const Walked wu = exact_first_fit<ClosedView, BalancePolicy::kNone>(
      ClosedView{ug}, std::vector<color_t>(ug.num_vertices(), kNoColor),
      natural(ug.num_vertices()));
  const ColoringResult rb = color_bgpc_sequential(bg);
  const ColoringResult ru = color_d2gc_sequential(ug);
  EXPECT_EQ(rb.colors, wb.colors);
  EXPECT_EQ(ru.colors, wu.colors);
  if constexpr (kCountersEnabled) {
    EXPECT_EQ(rb.iterations[0].color_counters.edges_visited,
              wb.counters.edges_visited);
    EXPECT_EQ(rb.iterations[0].color_counters.color_probes,
              wb.counters.color_probes);
    EXPECT_EQ(ru.iterations[0].color_counters.edges_visited,
              wu.counters.edges_visited);
    EXPECT_EQ(ru.iterations[0].color_counters.color_probes,
              wu.counters.color_probes);
  }
}

// N1-N2 at one thread: round 1 is net-based, and round 2 colors the
// conflicted vertices over summaries rebuilt from round 1's colors.
// Pinned from the exact walk (the engine before the summaries): the
// FNV-1a hash of the colors, the rounds, and each round's color and
// conflict edges_visited / color_probes hashed into one word.
struct Pinned {
  const char* name;
  std::uint64_t colors_fnv;
  int rounds;
  std::uint64_t counters_fnv;
};

const Pinned kPinned[] = {
    {"bgpc/N1-N2/none", 0xfeea093414cfbe3bULL, 2, 0x8d4543087a78176dULL},
    {"d2gc/N1-N2/none", 0x2e298a563f0e1ad4ULL, 2, 0x12530af2e6f785dcULL},
    {"bgpc/N1-N2/B1", 0x41ca10d30674ced8ULL, 2, 0x4f47b3eb93b04f39ULL},
    {"d2gc/N1-N2/B1", 0x0dbb5c519ff59a76ULL, 2, 0xcbb510ed4fd1b178ULL},
    {"bgpc/N1-N2/B2", 0xb69b410005e7b0a6ULL, 2, 0x6d4aace7787687f7ULL},
    {"d2gc/N1-N2/B2", 0xef52c7bc6ee99221ULL, 2, 0x9d0f50b1e8f6653eULL},
};

std::uint64_t fnv_add(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void expect_pinned(const std::string& name, const ColoringResult& r) {
  std::uint64_t ch = fnv_add(0xcbf29ce484222325ULL, r.colors.size());
  for (const color_t c : r.colors)
    ch = fnv_add(ch, static_cast<std::uint32_t>(c));
  std::uint64_t kh = fnv_add(0xcbf29ce484222325ULL, r.iterations.size());
  for (const IterationStats& it : r.iterations) {
    kh = fnv_add(kh, it.color_counters.edges_visited);
    kh = fnv_add(kh, it.color_counters.color_probes);
    kh = fnv_add(kh, it.conflict_counters.edges_visited);
    kh = fnv_add(kh, it.conflict_counters.color_probes);
  }
  char line[160];
  std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxULL, %d, 0x%016llxULL},",
                name.c_str(), static_cast<unsigned long long>(ch), r.rounds,
                static_cast<unsigned long long>(kh));
  const Pinned* p = nullptr;
  for (const Pinned& q : kPinned)
    if (name == q.name) p = &q;
  ASSERT_NE(p, nullptr) << "nothing pinned; actual:\n" << line;
  EXPECT_EQ(ch, p->colors_fnv) << "colors changed; actual:\n" << line;
  EXPECT_EQ(r.rounds, p->rounds) << "rounds changed; actual:\n" << line;
  if constexpr (kCountersEnabled) {
    EXPECT_EQ(kh, p->counters_fnv) << "counters changed; actual:\n" << line;
  }
}

TEST(NetSummary, SingleThreadN1N2RebuildEqualsTheWalk) {
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  for (const BalancePolicy b : kBalances) {
    ColoringOptions ob = bgpc_preset("N1-N2");
    ob.balance = b;
    ob.num_threads = 1;
    const ColoringResult rb = color_bgpc(bg, ob);
    ASSERT_TRUE(is_valid_bgpc(bg, rb.colors));
    EXPECT_GE(rb.rounds, 2);
    expect_pinned(std::string("bgpc/N1-N2/") + balance_tag(b), rb);
    ColoringOptions ou = d2gc_preset("N1-N2");
    ou.balance = b;
    ou.num_threads = 1;
    const ColoringResult ru = color_d2gc(ug, ou);
    ASSERT_TRUE(is_valid_d2gc(ug, ru.colors));
    EXPECT_GE(ru.rounds, 2);
    expect_pinned(std::string("d2gc/N1-N2/") + balance_tag(b), ru);
  }
}

TEST(NetSummary, ParallelColoringsAreValid) {
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  const BipartiteGraph cap = beyond_cap_bgpc();
  for (const int threads : {2, 4}) {
    for (const std::string& preset : bgpc_preset_names()) {
      for (const BalancePolicy b : kBalances) {
        ColoringOptions opt = bgpc_preset(preset);
        opt.balance = b;
        opt.num_threads = threads;
        EXPECT_TRUE(is_valid_bgpc(bg, color_bgpc(bg, opt).colors))
            << preset << "/" << balance_tag(b) << " t=" << threads;
        EXPECT_TRUE(is_valid_bgpc(cap, color_bgpc(cap, opt).colors))
            << preset << "/" << balance_tag(b) << " t=" << threads;
      }
    }
    for (const std::string& preset : d2gc_preset_names()) {
      for (const BalancePolicy b : kBalances) {
        ColoringOptions opt = d2gc_preset(preset);
        opt.balance = b;
        opt.num_threads = threads;
        EXPECT_TRUE(is_valid_d2gc(ug, color_d2gc(ug, opt).colors))
            << preset << "/" << balance_tag(b) << " t=" << threads;
      }
    }
  }
}

/// A partial coloring dense in repeats: about a quarter of the vertices
/// stay uncolored, an eighth take a color in [cap, 1.5·cap), and the rest
/// a color below 48 or, one in eight, anywhere below the cap.
std::vector<color_t> repeating_coloring(vid_t n, color_t cap, Lcg& rng) {
  std::vector<color_t> colors(static_cast<std::size_t>(n), kNoColor);
  const auto ucap = static_cast<std::uint32_t>(cap);
  for (color_t& col : colors) {
    const std::uint32_t kind = rng.below(8);
    if (kind < 2) continue;
    if (kind == 2)
      col = static_cast<color_t>(ucap + rng.below(ucap / 2));
    else if (kind == 3)
      col = static_cast<color_t>(rng.below(ucap));
    else
      col = static_cast<color_t>(rng.below(48));
  }
  return colors;
}

/// Every member of net v, its center included.
template <class V>
std::vector<vid_t> members(const V& view, vid_t v) {
  const auto vs = view.others(v);
  std::vector<vid_t> m(vs.begin(), vs.end());
  if constexpr (V::kCenter) m.push_back(v);
  return m;
}

/// Require, for every large net and every color k below the cap, that
/// the present bit is set iff one or more members hold k in `colors`,
/// that the repeat bit is set iff two or more do, and that no present
/// bit lies beyond the live words. Returns the repeat bits seen.
template <class V>
int expect_bits_match(const V& view, const NetSummaries& s,
                      const std::vector<color_t>& colors,
                      const std::string& what) {
  const color_t cap = s.cap();
  std::vector<int> held(static_cast<std::size_t>(cap));
  const std::size_t live = s.live_words();
  int repeats = 0;
  for (const vid_t v : s.large_nets()) {
    std::fill(held.begin(), held.end(), 0);
    for (const vid_t u : members(view, v)) {
      const color_t col = colors[static_cast<std::size_t>(u)];
      if (col != kNoColor && col < cap) ++held[static_cast<std::size_t>(col)];
    }
    for (color_t k = 0; k < cap; ++k) {
      const int h = held[static_cast<std::size_t>(k)];
      const bool present = detail::summary_holds(s.words(v), k);
      const bool repeat = detail::summary_holds(s.repeats(v), k);
      if (present != (h >= 1) || repeat != (h >= 2) ||
          (present && (static_cast<std::size_t>(k) >> 6) >= live)) {
        ADD_FAILURE() << what << ": net " << v << " color " << k << " held "
                      << h << " times, present " << present << ", repeat "
                      << repeat << ", live words " << live;
        return repeats;
      }
      repeats += repeat ? 1 : 0;
    }
  }
  return repeats;
}

TEST(NetSummary, RebuildSetsPresentAndRepeatBits) {
  if constexpr (!detail::kNetSummaries) GTEST_SKIP() << "exact-walk build";
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  const BipartiteView bv{bg};
  const ClosedView cv{ug};
  const NetSummaries bs(bv, bv.color_bound(1));
  const NetSummaries cs(cv, cv.color_bound(1));
  Lcg rng{0x2E9Eu};
  for (int trial = 0; trial < 4; ++trial) {
    const std::string tag = "trial " + std::to_string(trial);
    const std::vector<color_t> bc =
        repeating_coloring(bg.num_vertices(), bs.cap(), rng);
    detail::reset_summaries(bv, bc.data(), bs, 1 + trial % 2);
    EXPECT_GT(expect_bits_match(bv, bs, bc, "bgpc " + tag), 0);
    const std::vector<color_t> uc =
        repeating_coloring(ug.num_vertices(), cs.cap(), rng);
    detail::reset_summaries(cv, uc.data(), cs, 1 + trial % 2);
    EXPECT_GT(expect_bits_match(cv, cs, uc, "d2gc " + tag), 0);
  }
  // Zeroed (round 1): no bit anywhere.
  detail::reset_summaries(bv, nullptr, bs, 2);
  EXPECT_EQ(expect_bits_match(
                bv, bs, std::vector<color_t>(bg.num_vertices(), kNoColor),
                "bgpc zeroed"),
            0);
}

/// Run one parallel Alg. 4 phase over `order` from `colors`, as the
/// engine does: zero (`rebuild` false) or rebuild the summaries, then
/// color_vertex.
template <class V, BalancePolicy B>
void parallel_color_phase(const V& view, const NetSummaries& s,
                          std::vector<color_t>& colors,
                          const std::vector<vid_t>& order, bool rebuild,
                          int threads) {
  const color_t bound = view.color_bound(threads);
  std::vector<ThreadWorkspace> ws(static_cast<std::size_t>(threads));
  for (ThreadWorkspace& t : ws)
    t.prepare(static_cast<std::size_t>(bound) + 2,
              static_cast<std::size_t>(view.max_net_size()),
              s.words_per_net());
  detail::reset_summaries(view, rebuild ? colors.data() : nullptr, s,
                          threads);
  KernelCounters counters;
  detail::color_vertex<V, B>(view, order, colors.data(), s, ws, 1, threads,
                             counters);
}

template <class V>
void expect_phase_bits_match(const V& view, Lcg& rng, const std::string& what) {
  const NetSummaries s(view, view.color_bound(1));
  ASSERT_TRUE(s.enabled());
  for (const int threads : {2, 4}) {
    for (const BalancePolicy b : kBalances) {
      const std::string tag =
          what + " t=" + std::to_string(threads) + " " + balance_tag(b);
      detail::with_balance(b, [&](auto bal) {
        constexpr BalancePolicy B = decltype(bal)::value;
        // From scratch (round 1): every vertex in a net is queued.
        std::vector<color_t> colors(
            static_cast<std::size_t>(view.num_vertices()), kNoColor);
        parallel_color_phase<V, B>(view, s, colors, with_nets(view), false,
                                   threads);
        expect_bits_match(view, s, colors, tag + " zeroed");
        // A later round: the uncolored vertices in a net are queued over
        // summaries rebuilt from the rest.
        colors = repeating_coloring(view.num_vertices(), s.cap(), rng);
        std::vector<vid_t> order;
        for (const vid_t u : with_nets(view))
          if (colors[static_cast<std::size_t>(u)] == kNoColor)
            order.push_back(u);
        parallel_color_phase<V, B>(view, s, colors, order, true, threads);
        EXPECT_GT(expect_bits_match(view, s, colors, tag + " rebuilt"), 0);
      });
    }
  }
}

TEST(NetSummary, ParallelColorPhaseSetsPresentAndRepeatBits) {
  if constexpr (!detail::kNetSummaries) GTEST_SKIP() << "exact-walk build";
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  Lcg rng{0xB175u};
  expect_phase_bits_match(BipartiteView{bg}, rng, "bgpc");
  expect_phase_bits_match(ClosedView{ug}, rng, "d2gc");
}

/// A valid first-fit coloring of `view` with clashes planted into it:
/// in large nets (colors below the cap and, in one net, beyond it) and
/// in small ones, plus some uncolored vertices. Returns the planted
/// coloring; `w` gets every vertex in a net, shuffled.
template <class V>
std::vector<color_t> clashing_coloring(const V& view, const NetSummaries& s,
                                       Lcg& rng, std::vector<vid_t>& w) {
  std::vector<color_t> colors =
      exact_first_fit<V, BalancePolicy::kNone>(
          view,
          std::vector<color_t>(static_cast<std::size_t>(view.num_vertices()),
                               kNoColor),
          natural(view.num_vertices()))
          .colors;
  const auto nn = static_cast<vid_t>(view.num_nets());
  int beyond = 0;
  for (vid_t v = 0; v < nn; ++v) {
    const std::vector<vid_t> m = members(view, v);
    if (m.size() < 2 || rng.below(3) != 0) continue;
    const vid_t a = m[rng.below(static_cast<std::uint32_t>(m.size()))];
    const vid_t b = m[rng.below(static_cast<std::uint32_t>(m.size()))];
    if (a == b) continue;
    if (s.is_large(m.size()) && beyond++ == 0) {
      // Both at one color beyond the cap: only the walk can see it.
      colors[static_cast<std::size_t>(a)] = s.cap() + 3;
      colors[static_cast<std::size_t>(b)] = s.cap() + 3;
    } else {
      colors[static_cast<std::size_t>(a)] = colors[static_cast<std::size_t>(b)];
    }
  }
  for (color_t& col : colors)
    if (rng.below(16) == 0) col = kNoColor;
  w = with_nets(view);
  for (std::size_t i = w.size(); i > 1; --i)
    std::swap(w[i - 1], w[rng.below(static_cast<std::uint32_t>(i))]);
  return colors;
}

template <class V>
void expect_conflict_skip_matches_walk(const V& view, Lcg& rng,
                                       const std::string& what) {
  const NetSummaries s(view, view.color_bound(1));
  ASSERT_TRUE(s.enabled());
  const NetSummaries none;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<vid_t> w;
    const std::vector<color_t> planted = clashing_coloring(view, s, rng, w);
    for (const QueuePolicy q : {QueuePolicy::kShared, QueuePolicy::kLazy}) {
      const std::string tag = what + " trial " + std::to_string(trial) +
                              (q == QueuePolicy::kShared ? " shared" : " lazy");
      std::vector<color_t> walked = planted;
      std::vector<vid_t> next_walked;
      KernelCounters k_walked;
      detail::conflict_vertex(view, w, walked.data(), none, q, 1, 1,
                              next_walked, k_walked);
      std::vector<color_t> skipped = planted;
      detail::reset_summaries(view, skipped.data(), s, 1);
      std::vector<vid_t> next_skipped;
      KernelCounters k_skipped;
      detail::conflict_vertex(view, w, skipped.data(), s, q, 1, 1,
                              next_skipped, k_skipped);
      EXPECT_FALSE(next_walked.empty()) << tag;
      EXPECT_EQ(next_skipped, next_walked) << tag;
      EXPECT_EQ(skipped, walked) << tag;
      if constexpr (kCountersEnabled) {
        EXPECT_EQ(k_skipped.edges_visited, k_walked.edges_visited) << tag;
        EXPECT_EQ(k_skipped.conflicts, k_walked.conflicts) << tag;
      }
    }
  }
}

TEST(NetSummary, ConflictRemovalSkipEqualsTheWalk) {
  if constexpr (!detail::kNetSummaries) GTEST_SKIP() << "exact-walk build";
  const BipartiteGraph bg = threshold_bgpc();
  const Graph ug = threshold_d2gc();
  Lcg rng{0xC1A5u};
  expect_conflict_skip_matches_walk(BipartiteView{bg}, rng, "bgpc");
  expect_conflict_skip_matches_walk(ClosedView{ug}, rng, "d2gc");
}

}  // namespace
}  // namespace gcol
