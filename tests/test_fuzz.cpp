// Randomized property sweep: many seeded random instances through every
// engine, asserting the invariants that must hold universally —
// validity, bounds, termination without the fallback valve, and
// cross-engine consistency.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "builder_oracle.hpp"
#include "csr_mutation.hpp"
#include "validate_oracle.hpp"

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/dsatur.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/binary_io.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/graph/mtx_io.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/robust/verified.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/prng.hpp"

namespace gcol {
namespace {

/// A random instance family parameterized by seed: dimensions, density,
/// and skew all vary with the seed so the sweep covers a broad shape
/// range, deterministically.
Coo random_instance(std::uint64_t seed) {
  SplitMix64 sm(seed);
  const vid_t rows = 20 + static_cast<vid_t>(sm.next() % 400);
  const vid_t cols = 20 + static_cast<vid_t>(sm.next() % 700);
  const eid_t max_nnz = static_cast<eid_t>(rows) * cols;
  const eid_t nnz =
      std::min<eid_t>(max_nnz, 1 + static_cast<eid_t>(
                                       sm.next() % (8ULL * rows)));
  return gen_random_bipartite(rows, cols, nnz, seed);
}

class FuzzBgpc : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBgpc, AllPresetsValidOnRandomInstance) {
  const BipartiteGraph g = build_bipartite(random_instance(GetParam()));
  for (const auto& name : bgpc_preset_names()) {
    ColoringOptions opt = bgpc_preset(name);
    opt.num_threads = 1 + static_cast<int>(GetParam() % 4);
    const auto r = color_bgpc(g, opt);
    const auto violation = check_bgpc(g, r.colors);
    EXPECT_FALSE(violation.has_value())
        << name << " seed=" << GetParam()
        << (violation ? ": " + violation->to_string() : "");
    EXPECT_FALSE(r.sequential_fallback) << name;
    EXPECT_GE(r.num_colors, g.max_net_degree()) << name;
    EXPECT_LE(r.num_colors, bgpc_color_bound(g)) << name;
  }
}

TEST_P(FuzzBgpc, BalancedVariantsValid) {
  const BipartiteGraph g = build_bipartite(random_instance(GetParam() ^ 0xB));
  for (const auto policy : {BalancePolicy::kB1, BalancePolicy::kB2}) {
    ColoringOptions opt = bgpc_preset("N1-N2");
    opt.balance = policy;
    opt.num_threads = 2;
    const auto r = color_bgpc(g, opt);
    EXPECT_TRUE(is_valid_bgpc(g, r.colors))
        << to_string(policy) << " seed=" << GetParam();
  }
}

TEST_P(FuzzBgpc, DsaturAndRecolorPreserveValidity) {
  const BipartiteGraph g = build_bipartite(random_instance(GetParam() ^ 0xD));
  const auto ds = color_bgpc_dsatur(g);
  EXPECT_TRUE(is_valid_bgpc(g, ds.colors));
  auto colors = ds.colors;
  const color_t after = recolor_bgpc(g, colors);
  EXPECT_TRUE(is_valid_bgpc(g, colors));
  EXPECT_LE(after, ds.num_colors);
}

/// build_bipartite / build_graph against the comparison-sort builder
/// they replaced (builder_oracle.hpp), array for array.
void expect_builds_match_oracle(const Coo& coo, const std::string& what) {
  const BipartiteGraph g = build_bipartite(coo);
  const testing::ReferenceBipartite ref =
      testing::reference_build_bipartite(coo);
  EXPECT_EQ(g.vptr(), ref.vtx.ptr) << what;
  EXPECT_EQ(g.vadj(), ref.vtx.adj) << what;
  EXPECT_EQ(g.nptr(), ref.net.ptr) << what;
  EXPECT_EQ(g.nadj(), ref.net.adj) << what;
  if (coo.num_rows != coo.num_cols) return;
  const Graph h = build_graph(coo);
  const testing::ReferenceCsr href = testing::reference_build_graph(coo);
  EXPECT_EQ(h.ptr(), href.ptr) << what;
  EXPECT_EQ(h.adj(), href.adj) << what;
}

constexpr int kGeneratorFamilies = 9;

/// A small instance of generator family `family` at `seed`.
Coo generator_instance(int family, std::uint64_t seed) {
  SplitMix64 sm(seed);
  const auto pick = [&](vid_t lo, vid_t span) {
    return lo + static_cast<vid_t>(sm.next() % static_cast<std::uint64_t>(span));
  };
  switch (family) {
    case 0:
      return gen_mesh2d(pick(2, 20), pick(2, 20), 1 + static_cast<int>(seed % 2));
    case 1:
      return gen_mesh3d(pick(2, 6), pick(2, 6), pick(2, 6), 1, seed % 2 == 0);
    case 2: {
      PowerLawBipartiteParams p;
      p.rows = pick(10, 200);
      p.cols = pick(10, 300);
      p.max_deg = 60;
      p.alpha = 1.5;
      p.col_skew = 0.3;
      p.seed = seed;
      return gen_powerlaw_bipartite(p);
    }
    case 3:
      return gen_clique_union(pick(30, 300), pick(1, 20), 2, 20, 1.7, seed);
    case 4:
      return gen_preferential_attachment(pick(10, 300), 3, seed);
    case 5:
      return gen_kkt(pick(2, 4), pick(2, 4), pick(2, 4), pick(1, 30), 3, seed);
    case 6:
      return gen_block_rows(pick(40, 200), 8, 20, 0.25, seed);
    case 7:
      return random_instance(seed);
    default:
      return gen_random_geometric(pick(10, 300), 0.15, seed);
  }
}

/// `coo` with a tenth of its entries repeated, then all in random order.
Coo shuffled_with_repeats(Coo coo, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::size_t n = coo.rows.size();
  for (std::size_t k = 0; k < n / 10; ++k) {
    const std::size_t i = rng.bounded(n);
    const vid_t r = coo.rows[i];
    const vid_t c = coo.cols[i];
    coo.add(r, c);
  }
  for (std::size_t i = coo.rows.size(); i > 1; --i) {
    const std::size_t j = rng.bounded(i);
    std::swap(coo.rows[i - 1], coo.rows[j]);
    std::swap(coo.cols[i - 1], coo.cols[j]);
  }
  return coo;
}

/// A random COO with repeated and diagonal entries, and rows and columns
/// whose id is 3 mod 5 left empty; square on even seeds.
Coo messy_instance(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo coo;
  coo.num_rows = 1 + static_cast<vid_t>(rng.bounded(60));
  coo.num_cols = seed % 2 == 0 ? coo.num_rows
                               : 1 + static_cast<vid_t>(rng.bounded(60));
  const auto id = [&](vid_t n) {
    vid_t v;
    do {
      v = static_cast<vid_t>(rng.bounded(static_cast<std::uint64_t>(n)));
    } while (v % 5 == 3 && n > 3);
    return v;
  };
  const std::size_t entries = rng.bounded(4 * static_cast<std::size_t>(coo.num_rows));
  for (std::size_t k = 0; k < entries; ++k) {
    const vid_t r = id(coo.num_rows);
    coo.add(r, k % 4 == 0 && r < coo.num_cols ? r : id(coo.num_cols));
  }
  return shuffled_with_repeats(std::move(coo), seed ^ 0x5EED);
}

TEST_P(FuzzBgpc, BuildersMatchComparisonSortOracle) {
  const std::uint64_t seed = GetParam();
  for (int family = 0; family < kGeneratorFamilies; ++family) {
    const Coo coo = generator_instance(family, seed);
    const std::string what =
        "family " + std::to_string(family) + ", seed " + std::to_string(seed);
    expect_builds_match_oracle(coo, what);
    expect_builds_match_oracle(shuffled_with_repeats(coo, seed),
                               what + ", shuffled");
  }
  expect_builds_match_oracle(messy_instance(seed),
                             "messy, seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBgpc,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Random symmetric graphs for the unipartite engines.
Coo random_symmetric(std::uint64_t seed) {
  SplitMix64 sm(seed);
  const vid_t n = 30 + static_cast<vid_t>(sm.next() % 500);
  Coo coo = gen_random_bipartite(
      n, n, std::min<eid_t>(static_cast<eid_t>(n) * n, 6 * n), seed);
  coo.symmetrize();
  return coo;
}

class FuzzUnipartite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzUnipartite, D2gcPresetsValid) {
  const Graph g = build_graph(random_symmetric(GetParam()));
  for (const auto& name : d2gc_preset_names()) {
    ColoringOptions opt = d2gc_preset(name);
    opt.num_threads = 1 + static_cast<int>(GetParam() % 3);
    const auto r = color_d2gc(g, opt);
    EXPECT_TRUE(is_valid_d2gc(g, r.colors))
        << name << " seed=" << GetParam();
    EXPECT_FALSE(r.sequential_fallback) << name;
  }
}

TEST_P(FuzzUnipartite, D1FamilyAgreesOnValidity) {
  const Graph g = build_graph(random_symmetric(GetParam() ^ 0x1));
  const auto seq = color_d1gc_sequential(g);
  const auto spec = color_d1gc(g, bgpc_preset("V-V-64D"));
  const auto jp = color_d1gc_jones_plassmann(g, GetParam(), 3);
  const auto ds = color_d1gc_dsatur(g);
  EXPECT_TRUE(is_valid_d1gc(g, seq.colors));
  EXPECT_TRUE(is_valid_d1gc(g, spec.colors));
  EXPECT_TRUE(is_valid_d1gc(g, jp.colors));
  EXPECT_TRUE(is_valid_d1gc(g, ds.colors));
  // D1 never needs more colors than D2 on the same graph.
  const auto d2 = color_d2gc_sequential(g);
  EXPECT_LE(seq.num_colors, d2.num_colors);
}

TEST_P(FuzzUnipartite, D2EqualsBgpcOnClosedNeighborhoods) {
  const Graph g = build_graph(random_symmetric(GetParam() ^ 0x2));
  const BipartiteGraph bg = graph_to_bipartite_closed(g);
  EXPECT_EQ(color_d2gc_sequential(g).colors,
            color_bgpc_sequential(bg).colors);
  // The parallel engine at one thread: the closed view over g walks
  // exactly the nets of the materialized closed-neighborhood graph.
  for (const char* name : {"V-V-64D", "V-N1", "V-N2"}) {
    ColoringOptions opt = d2gc_preset(name);
    opt.num_threads = 1;
    EXPECT_EQ(color_d2gc(g, opt).colors, color_bgpc(bg, opt).colors)
        << name << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzUnipartite,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Corrupted-input corpus: well-formed files put through deterministic
// byte corruption. The ingest contract is binary — either the corrupted
// bytes still parse into a graph that validates, or a typed gcol::Error
// is thrown. Crashes, hangs, huge allocations, and untyped exceptions
// are all failures.
// ---------------------------------------------------------------------

class FuzzCorruptedInput : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCorruptedInput, MtxEitherParsesOrThrowsTyped) {
  const Coo coo = random_instance(GetParam());
  std::ostringstream out;
  write_matrix_market(out, coo);
  const std::string good = out.str();

  FaultPlan plan;
  plan.seed = GetParam();
  plan.flip_byte_rate = 0.02;
  plan.truncate_fraction = 0.6;
  for (std::uint64_t variant = 0; variant < 16; ++variant) {
    std::istringstream in(plan.corrupt_bytes(good, variant));
    try {
      const Coo back = read_matrix_market(in);
      const BipartiteGraph g = build_bipartite(back);
      EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                      g.nptr(), g.nadj()))
          << "variant " << variant;
      expect_builds_match_oracle(back, "variant " + std::to_string(variant));
    } catch (const Error&) {
      // Typed rejection is the expected outcome for most variants.
    }
  }
}

TEST_P(FuzzCorruptedInput, BinaryEitherParsesOrThrowsTyped) {
  const BipartiteGraph g = build_bipartite(random_instance(GetParam() ^ 0xC));
  std::ostringstream out(std::ios::binary);
  write_binary(out, g);
  const std::string good = out.str();

  FaultPlan plan;
  plan.seed = GetParam() * 3 + 1;
  plan.flip_byte_rate = 0.01;
  plan.truncate_fraction = 0.7;
  for (std::uint64_t variant = 0; variant < 16; ++variant) {
    const std::string bytes = plan.corrupt_bytes(good, variant);
    // The verdict ("ok" or the error code) must not depend on the team
    // that validates the graph.
    std::string verdict[2];
    for (const int i : {0, 1}) {
      const ThreadCountScope team(i == 0 ? 1 : 4);
      std::istringstream in(bytes, std::ios::binary);
      try {
        const BipartiteGraph back = read_binary_bipartite(in);
        EXPECT_TRUE(testing::oracle_is_strict_transpose(
            back.vptr(), back.vadj(), back.nptr(), back.nadj()))
            << "variant " << variant;
        verdict[i] = "ok";
      } catch (const Error& e) {
        // Typed rejection expected; anything else propagates and fails.
        verdict[i] = to_string(e.code());
      }
    }
    EXPECT_EQ(verdict[0], verdict[1]) << "variant " << variant;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCorruptedInput,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------
// The constructors' gate under every csr_mutation.hpp edit of their
// input: each attempt either throws a typed input error, or constructs a
// graph that the verified entry points color validly on one thread and
// on four.
// ---------------------------------------------------------------------

/// `make()` throws an input error, or builds a graph `color(g, t)` colors
/// so that `check(g, colors)` finds nothing at t = 1 and t = 4. Returns
/// whether it threw.
template <class Make, class Color, class Check>
bool expect_typed_or_colored(const Make& make, const Color& color,
                             const Check& check, const std::string& what) {
  decltype(make()) g;
  try {
    g = make();
  } catch (const Error& e) {
    EXPECT_TRUE(e.is_input_error()) << what << ": " << e.what();
    return true;
  }
  for (const int t : {1, 4}) {
    const auto violation = check(g, color(g, t).colors);
    EXPECT_FALSE(violation.has_value())
        << what << " t=" << t << ": " << violation->to_string();
  }
  return false;
}

const auto kColorBgpc = [](const BipartiteGraph& g, int t) {
  ColoringOptions opt = bgpc_preset(t == 1 ? "V-V" : "N1-N2");
  opt.num_threads = t;
  return color_bgpc_verified(g, opt);
};
const auto kColorD2gc = [](const Graph& g, int t) {
  ColoringOptions opt = d2gc_preset(t == 1 ? "V-V-64D" : "N1-N2");
  opt.num_threads = t;
  return color_d2gc_verified(g, opt);
};
const auto kCheckBgpc = [](const BipartiteGraph& g,
                           const std::vector<color_t>& colors) {
  return check_bgpc(g, colors);
};
const auto kCheckD2gc = [](const Graph& g,
                           const std::vector<color_t>& colors) {
  return check_d2gc(g, colors);
};

class FuzzGate : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzGate, MutatedInputIsTypedOrColorsValidly) {
  using testing::CsrMutation;
  const BipartiteGraph bg =
      build_bipartite(random_instance(GetParam() ^ 0x6A7E));
  const Graph ug = build_graph(random_symmetric(GetParam() ^ 0x6A7E));
  const vid_t n = ug.num_vertices();
  Xoshiro256 rng(GetParam());
  int threw = 0;
  int attempts = 0;
  for (const CsrMutation m : testing::kAllCsrMutations) {
    for (int trial = 0; trial < 2; ++trial) {
      const std::string what = std::string(testing::to_string(m)) +
                               " seed=" + std::to_string(GetParam());
      auto vptr = bg.vptr();
      auto vadj = bg.vadj();
      if (testing::mutate(m, vptr, vadj, bg.num_nets(), rng)) {
        threw += expect_typed_or_colored(
            [&] {
              return BipartiteGraph(bg.num_vertices(), bg.num_nets(), vptr,
                                    vadj);
            },
            kColorBgpc, kCheckBgpc, "bgpc " + what);
        ++attempts;
      }
      auto ptr = ug.ptr();
      auto adj = ug.adj();
      if (testing::mutate(m, ptr, adj, n, rng)) {
        // Every edit breaks a symmetric, loop-free adjacency.
        const bool refused = expect_typed_or_colored(
            [&] { return Graph(n, ptr, adj); }, kColorD2gc, kCheckD2gc,
            "d2gc " + what);
        EXPECT_TRUE(refused) << what;
        threw += refused;
        ++attempts;
      }
    }
  }
  EXPECT_GT(attempts, 0);
  EXPECT_GT(threw, attempts / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzGate,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(GateShapes, NoVerticesNoNetsNoEdges) {
  // (vertices, nets) with nnz = 0: each constructs and colors.
  for (const auto& [nv, nn] : {std::pair<vid_t, vid_t>{0, 0}, {0, 5}, {5, 0},
                               {5, 5}}) {
    const std::string what =
        std::to_string(nv) + "x" + std::to_string(nn);
    EXPECT_FALSE(expect_typed_or_colored(
        [&] {
          return BipartiteGraph(
              nv, nn, std::vector<eid_t>(static_cast<std::size_t>(nv) + 1),
              {});
        },
        kColorBgpc, kCheckBgpc, what));
    // A vertex naming a net where there is none is out of range.
    if (nv > 0 && nn == 0) {
      std::vector<eid_t> vptr(static_cast<std::size_t>(nv) + 1, 1);
      vptr[0] = 0;
      try {
        (void)BipartiteGraph(nv, nn, vptr, {0});
        ADD_FAILURE() << what << ": accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kOutOfRange) << e.what();
      }
    }
  }
  for (const vid_t n : {0, 1, 7}) {
    EXPECT_FALSE(expect_typed_or_colored(
        [&] {
          return Graph(
              n, std::vector<eid_t>(static_cast<std::size_t>(n) + 1), {});
        },
        kColorD2gc, kCheckD2gc, "graph n=" + std::to_string(n)));
  }
}

// ---------------------------------------------------------------------
// Fault matrix: every fault scenario x every algorithm family through
// the verified entry points must end in a coloring that passes the
// oracle — degraded if need be, invalid never.
// ---------------------------------------------------------------------

struct FaultScenario {
  const char* name;
  const char* spec;     ///< FaultPlan spec ("" = clean control run)
  int max_rounds;       ///< 0 keeps the default budget
  double deadline;      ///< 0 disables the watchdog
};

constexpr FaultScenario kKernelScenarios[] = {
    {"clean", "", 0, 0.0},
    {"stale-light", "seed=3,stale=0.05", 0, 0.0},
    {"stale-heavy", "seed=5,stale=0.5", 0, 0.0},
    {"stale-capped", "seed=7,stale=0.3", 2, 0.0},
    {"stall-deadline", "seed=9,stale=0.2,delay-rounds=4,delay-ms=3", 0, 0.004},
};

// gtest would otherwise print the raw bytes of the param, pointers
// included, into the discovered test name — a different name every run.
void PrintTo(const FaultScenario& s, std::ostream* os) { *os << s.name; }

class FaultMatrix : public ::testing::TestWithParam<FaultScenario> {};

TEST_P(FaultMatrix, BgpcPresetsAlwaysEndValid) {
  const FaultScenario& s = GetParam();
  const BipartiteGraph g = build_bipartite(random_instance(0x5EED));
  const FaultPlan plan = FaultPlan::parse(s.spec);
  FaultInjector faults(plan);
  for (const auto& name : {"V-V", "V-Ninf", "N1-N2"}) {
    ColoringOptions opt = bgpc_preset(name);
    opt.num_threads = 2;
    if (*s.spec) opt.hooks = {&faults};
    if (s.max_rounds > 0) opt.max_rounds = s.max_rounds;
    opt.deadline_seconds = s.deadline;
    const auto r = color_bgpc_verified(g, opt);
    const auto violation = check_bgpc(g, r.colors);
    EXPECT_FALSE(violation.has_value())
        << s.name << "/" << name
        << (violation ? ": " + violation->to_string() : "");
  }
}

TEST_P(FaultMatrix, D2gcPresetsAlwaysEndValid) {
  const FaultScenario& s = GetParam();
  const Graph g = build_graph(random_symmetric(0x5EED));
  const FaultPlan plan = FaultPlan::parse(s.spec);
  FaultInjector faults(plan);
  for (const auto& name : {"V-V-64D", "N1-N2"}) {
    ColoringOptions opt = d2gc_preset(name);
    opt.num_threads = 2;
    if (*s.spec) opt.hooks = {&faults};
    if (s.max_rounds > 0) opt.max_rounds = s.max_rounds;
    opt.deadline_seconds = s.deadline;
    const auto r = color_d2gc_verified(g, opt);
    EXPECT_TRUE(is_valid_d2gc(g, r.colors)) << s.name << "/" << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernel, FaultMatrix,
                         ::testing::ValuesIn(kKernelScenarios),
                         [](const auto& info) {
                           std::string id = info.param.name;
                           for (auto& c : id)
                             if (c == '-') c = '_';
                           return id;
                         });

}  // namespace
}  // namespace gcol
