// Differential tests of the guard sweeps that run on the thread team:
// the coloring check against the sequential check it replaced
// (verify_oracle.hpp), and the graph constructors' blocked gate (and the
// binary loader, which hands its arrays to them) against the sequential
// verdicts of validate_oracle.hpp. Each verdict must be the oracle's at
// every team size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <iterator>
#include <utility>
#include <vector>

#include "csr_mutation.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/binary_io.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/prng.hpp"
#include "validate_oracle.hpp"
#include "verify_oracle.hpp"

namespace gcol {
namespace {

constexpr int kTeamSizes[] = {1, 2, 4};

void expect_same(const std::optional<ColoringViolation>& got,
                 const std::optional<ColoringViolation>& want,
                 const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->a, want->a) << what;
  EXPECT_EQ(got->b, want->b) << what;
  EXPECT_EQ(got->via, want->via) << what;
  EXPECT_EQ(got->what, want->what) << what;
}

/// `edits` seeded corruptions of a valid coloring. Most copy the color
/// of a member of one of u's nets (a certain clash); the rest pick a
/// random color, a color just above the vertex count (the check's
/// ranking path) or leave u uncolored.
template <class Nets, class Members>
std::vector<color_t> corrupt(std::vector<color_t> colors, int edits,
                             std::uint64_t seed, Nets nets, Members members) {
  Xoshiro256 rng(seed);
  const auto n = colors.size();
  const color_t top = *std::max_element(colors.begin(), colors.end());
  for (int k = 0; k < edits; ++k) {
    const auto u = static_cast<vid_t>(rng.bounded(n));
    color_t& cu = colors[static_cast<std::size_t>(u)];
    const std::uint64_t kind = rng.bounded(10);
    if (kind < 5) {
      const auto ns = nets(u);
      if (ns.empty()) continue;
      const auto ms = members(ns[rng.bounded(ns.size())]);
      if (ms.empty()) continue;
      cu = colors[static_cast<std::size_t>(ms[rng.bounded(ms.size())])];
    } else if (kind < 7) {
      cu = static_cast<color_t>(
          rng.bounded(static_cast<std::uint64_t>(top) + 2));
    } else if (kind < 9) {
      cu = static_cast<color_t>(n + rng.bounded(16));
    } else {
      cu = kNoColor;
    }
  }
  return colors;
}

/// Seeded corruptions of the clean coloring, plus one with 32 uncolored
/// vertices (the lowest must be reported): `check` must return the
/// oracle's violation at every team size.
template <class G, class Check, class Oracle, class Nets, class Members>
void expect_check_matches_oracle(const G& g, const std::vector<color_t>& clean,
                                 Check check, Oracle oracle, Nets nets,
                                 Members members, const std::string& name) {
  for (const int t : kTeamSizes) {
    const ThreadCountScope team(t);
    EXPECT_FALSE(check(g, clean).has_value()) << name << " t=" << t;
  }
  std::vector<std::pair<std::string, std::vector<color_t>>> cases;
  for (const int edits : {1, 2, 8})
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      cases.emplace_back(
          "edits=" + std::to_string(edits) + " seed=" + std::to_string(seed),
          corrupt(clean, edits, seed * 131 + static_cast<std::uint64_t>(edits),
                  nets, members));
  std::vector<color_t> holes = clean;
  Xoshiro256 rng(7);
  for (int k = 0; k < 32; ++k) holes[rng.bounded(holes.size())] = kNoColor;
  cases.emplace_back("32 uncolored", std::move(holes));
  for (const auto& [what, colors] : cases) {
    const auto want = oracle(g, colors);
    for (const int t : kTeamSizes) {
      const ThreadCountScope team(t);
      expect_same(check(g, colors), want,
                  name + " " + what + " t=" + std::to_string(t));
    }
  }
}

class CheckDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckDifferential, BgpcViolationMatchesSequentialOracle) {
  const BipartiteGraph g = load_bipartite(GetParam());
  expect_check_matches_oracle(
      g, color_bgpc(g).colors, check_bgpc, testing::oracle_check_bgpc,
      [&](vid_t u) { return g.nets(u); }, [&](vid_t v) { return g.vtxs(v); },
      GetParam());
}

/// The engine's color bounds are the sequential pre-pass's values on
/// every team.
TEST_P(CheckDifferential, ColorBoundIsTheSameOnEveryTeam) {
  const BipartiteGraph g = load_bipartite(GetParam());
  eid_t d2 = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    eid_t sum = 0;
    for (const vid_t v : g.nets(u)) sum += g.net_degree(v) - 1;
    d2 = std::max(d2, sum);
  }
  const auto bound = static_cast<color_t>(d2 + 1);
  for (const int t : kTeamSizes) {
    EXPECT_EQ(BipartiteView{g}.color_bound(t), bound) << "t=" << t;
    const ThreadCountScope team(t);
    EXPECT_EQ(bgpc_color_bound(g), bound) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, CheckDifferential,
                         ::testing::ValuesIn(dataset_names()));

class CheckDifferentialD2gc : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckDifferentialD2gc, D2gcViolationMatchesSequentialOracle) {
  const Graph g = load_graph(GetParam());
  expect_check_matches_oracle(
      g, color_d2gc(g).colors, check_d2gc, testing::oracle_check_d2gc,
      [&](vid_t u) { return g.neighbors(u); },
      [&](vid_t v) { return g.neighbors(v); }, GetParam());
}

TEST_P(CheckDifferentialD2gc, ColorBoundIsTheSameOnEveryTeam) {
  const Graph g = load_graph(GetParam());
  eid_t d2 = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    eid_t sum = g.degree(v);
    for (const vid_t u : g.neighbors(v)) sum += g.degree(u) - 1;
    d2 = std::max(d2, sum);
  }
  const auto bound = static_cast<color_t>(d2 + 2);
  for (const int t : kTeamSizes) {
    EXPECT_EQ(ClosedView{g}.color_bound(t), bound) << "t=" << t;
    const ThreadCountScope team(t);
    EXPECT_EQ(d2gc_color_bound(g), bound) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, CheckDifferentialD2gc,
                         ::testing::ValuesIn(dataset_names(true)));

/// Graphs with no vertices: the empty color array is valid on every
/// team, as the oracle says, with or without nets.
TEST(CheckDifferential, EmptyGraphMatchesSequentialOracle) {
  for (const vid_t nets : {0, 5}) {
    Coo coo;
    coo.num_rows = nets;
    const BipartiteGraph g = build_bipartite(std::move(coo));
    const Graph h = build_graph(Coo{});
    for (const int t : kTeamSizes) {
      const ThreadCountScope team(t);
      const std::string what =
          "nets=" + std::to_string(nets) + " t=" + std::to_string(t);
      expect_same(check_bgpc(g, {}), testing::oracle_check_bgpc(g, {}), what);
      expect_same(check_bgpc(g, {0}), testing::oracle_check_bgpc(g, {0}),
                  what);
      expect_same(check_d2gc(h, {}), testing::oracle_check_d2gc(h, {}), what);
    }
  }
}

// ---------------------------------------------------------------------
// The constructors' gate and the binary loader: single CSR edits placed
// on the rows just before and at each block boundary of a four-thread
// team.
// ---------------------------------------------------------------------

/// The gate splits its rows into one block per thread once every block
/// gets some thousands of edges and more edges than the other side has
/// lists. These graphs, 32768 rows a side with about six edges per row,
/// are well past both.
constexpr vid_t kRows = 32768;

/// The rows a four-thread team starts its blocks 1..3 at: the blocks
/// split the edges evenly.
std::vector<std::size_t> block_starts(const std::vector<eid_t>& ptr) {
  std::vector<std::size_t> starts;
  for (const eid_t b : {1, 2, 3})
    starts.push_back(static_cast<std::size_t>(
        std::lower_bound(ptr.begin(), ptr.end() - 1, ptr.back() * b / 4) -
        ptr.begin()));
  return starts;
}

/// The bytes of a file holding these arrays, checked or not: the
/// dimensions, then each array as a u64 length and its elements.
std::string file_bytes(const char (&magic)[9], std::vector<std::int64_t> dims,
                       const std::vector<eid_t>& ptr,
                       const std::vector<vid_t>& adj) {
  std::string out(magic, 8);
  const auto put = [&out](const void* data, std::size_t bytes) {
    out.append(static_cast<const char*>(data), bytes);
  };
  for (const std::int64_t d : dims) put(&d, sizeof(d));
  const std::uint64_t ptr_len = ptr.size();
  put(&ptr_len, sizeof(ptr_len));
  put(ptr.data(), ptr.size() * sizeof(eid_t));
  const std::uint64_t adj_len = adj.size();
  put(&adj_len, sizeof(adj_len));
  put(adj.data(), adj.size() * sizeof(vid_t));
  return out;
}

/// The constructor and the loader give the oracle's verdict at every
/// team size; `make(ptr, adj)` constructs, `load(in)` reads.
template <class Make, class Load>
void expect_gate_matches_oracle(const std::string& want, const Make& make,
                                const std::string& bytes, const Load& load,
                                const std::string& what) {
  for (const int t : kTeamSizes) {
    const ThreadCountScope team(t);
    EXPECT_EQ(testing::gate_verdict(make), want) << what << " t=" << t;
    EXPECT_EQ(testing::gate_verdict([&] {
                std::istringstream in(bytes, std::ios::binary);
                return load(in);
              }),
              want)
        << what << " (loaded) t=" << t;
  }
}

TEST(ValidateDifferential, BipartiteEditsAtBlockBoundaries) {
  using testing::CsrMutation;
  const BipartiteGraph base =
      build_bipartite(gen_random_bipartite(kRows, kRows, 6 * kRows, 7));
  ASSERT_GE(base.num_edges(), 5 * kRows);
  const auto load = [](std::istream& in) { return read_binary_bipartite(in); };
  const auto check = [&](const std::vector<eid_t>& vptr,
                         const std::vector<vid_t>& vadj,
                         const std::string& what) {
    const std::string want =
        testing::oracle_bipartite_verdict(kRows, kRows, vptr, vadj);
    expect_gate_matches_oracle(
        want, [&] { return BipartiteGraph(kRows, kRows, vptr, vadj); },
        file_bytes("GCOLBP02", {kRows, kRows}, vptr, vadj), load, what);
    return want;
  };
  EXPECT_EQ(check(base.vptr(), base.vadj(), "unedited"), "ok");
  for (const int t : kTeamSizes) {
    const ThreadCountScope team(t);
    const BipartiteGraph g(kRows, kRows, base.vptr(), base.vadj());
    EXPECT_EQ(g.nptr(), base.nptr()) << "t=" << t;
    EXPECT_EQ(g.nadj(), base.nadj()) << "t=" << t;
  }
  Xoshiro256 rng(11);
  int rejected = 0;
  for (const CsrMutation m : testing::kAllCsrMutations) {
    if (m == CsrMutation::kSelfLoop || m == CsrMutation::kPtrStart) continue;
    for (const std::size_t boundary : block_starts(base.vptr())) {
      for (const std::size_t row : {boundary - 1, boundary}) {
        auto vptr = base.vptr();
        auto vadj = base.vadj();
        ASSERT_TRUE(testing::mutate_from(m, vptr, vadj, kRows, row, rng));
        rejected += check(vptr, vadj,
                          std::string(testing::to_string(m)) + " at row " +
                              std::to_string(row)) == "ok"
                        ? 0
                        : 1;
      }
    }
  }
  // Out of range, a repeat and disorder always break a list; a moved or
  // one-sided entry may leave a valid graph, different from the base.
  EXPECT_GE(rejected, 3 * 3 * 2);
}

TEST(ValidateDifferential, SymmetricEditsAtBlockBoundaries) {
  using testing::CsrMutation;
  const Graph base =
      build_graph(gen_random_bipartite(kRows, kRows, 3 * kRows, 5));
  ASSERT_EQ(base.num_vertices(), kRows);
  ASSERT_GE(base.adj().size(), 5 * static_cast<std::size_t>(kRows));
  const auto load = [](std::istream& in) { return read_binary_graph(in); };
  const auto check = [&](const std::vector<eid_t>& ptr,
                         const std::vector<vid_t>& adj,
                         const std::string& what) {
    const std::string want = testing::oracle_graph_verdict(kRows, ptr, adj);
    expect_gate_matches_oracle(
        want, [&] { return Graph(kRows, ptr, adj); },
        file_bytes("GCOLGR01", {kRows}, ptr, adj), load, what);
    return want;
  };
  EXPECT_EQ(check(base.ptr(), base.adj(), "unedited"), "ok");
  Xoshiro256 rng(13);
  int rejected = 0;
  for (const CsrMutation m : testing::kAllCsrMutations) {
    for (const std::size_t boundary : block_starts(base.ptr())) {
      for (const std::size_t row : {boundary - 1, boundary}) {
        auto ptr = base.ptr();
        auto adj = base.adj();
        ASSERT_TRUE(testing::mutate_from(m, ptr, adj, kRows, row, rng));
        rejected += check(ptr, adj,
                          std::string(testing::to_string(m)) + " at row " +
                              std::to_string(row)) == "ok"
                        ? 0
                        : 1;
      }
    }
  }
  EXPECT_EQ(rejected, 7 * 3 * 2);
}

/// Byte-flipped binaries of a graph large enough for four blocks: the
/// loader's verdict is the same at every team size, and a graph that
/// loads has the transpose of its vertex side for nets.
TEST(ValidateDifferential, CorruptedBinaryVerdictIsTeamIndependent) {
  const BipartiteGraph g =
      build_bipartite(gen_random_bipartite(kRows, kRows, 6 * kRows, 3));
  std::ostringstream out(std::ios::binary);
  write_binary(out, g);
  const std::string good = out.str();
  FaultPlan plan;
  plan.seed = 17;
  plan.flip_byte_rate = 4.0 / static_cast<double>(good.size());
  for (std::uint64_t variant = 0; variant < 16; ++variant) {
    const std::string bytes = plan.corrupt_bytes(good, variant);
    std::string verdict[std::size(kTeamSizes)];
    for (std::size_t i = 0; i < std::size(kTeamSizes); ++i) {
      const ThreadCountScope team(kTeamSizes[i]);
      std::istringstream in(bytes, std::ios::binary);
      try {
        const BipartiteGraph back = read_binary_bipartite(in);
        EXPECT_TRUE(testing::oracle_is_strict_transpose(
            back.vptr(), back.vadj(), back.nptr(), back.nadj()))
            << "variant " << variant;
        verdict[i] = "ok";
      } catch (const Error& e) {
        verdict[i] = e.what();
      }
    }
    EXPECT_EQ(verdict[0], verdict[1]) << "variant " << variant;
    EXPECT_EQ(verdict[0], verdict[2]) << "variant " << variant;
  }
}

}  // namespace
}  // namespace gcol
