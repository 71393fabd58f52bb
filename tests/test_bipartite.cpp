#include "greedcolor/graph/bipartite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>

#include "csr_mutation.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/robust/error.hpp"
#include "test_util.hpp"
#include "validate_oracle.hpp"

namespace gcol {
namespace {

TEST(BipartiteGraph, BuildFromRectangularCoo) {
  Coo coo;
  coo.num_rows = 2;  // nets
  coo.num_cols = 3;  // vertices
  coo.add(0, 0);
  coo.add(0, 2);
  coo.add(1, 1);
  coo.add(1, 2);
  const BipartiteGraph g = build_bipartite(std::move(coo));
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_nets(), 2);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                  g.nptr(), g.nadj()));
}

TEST(BipartiteGraph, AdjacencyIsConsistentBothSides) {
  Coo coo;
  coo.num_rows = 3;
  coo.num_cols = 4;
  coo.add(0, 1);
  coo.add(0, 3);
  coo.add(1, 0);
  coo.add(2, 1);
  coo.add(2, 2);
  const BipartiteGraph g = build_bipartite(std::move(coo));
  // vtxs(0) = {1,3}; nets(1) = {0,2}
  const auto v0 = g.vtxs(0);
  EXPECT_EQ(std::vector<vid_t>(v0.begin(), v0.end()),
            (std::vector<vid_t>{1, 3}));
  const auto n1 = g.nets(1);
  EXPECT_EQ(std::vector<vid_t>(n1.begin(), n1.end()),
            (std::vector<vid_t>{0, 2}));
  EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                  g.nptr(), g.nadj()));
}

TEST(BipartiteGraph, Degrees) {
  const BipartiteGraph g = testing::disjoint_nets(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_nets(), 3);
  for (vid_t v = 0; v < 3; ++v) EXPECT_EQ(g.net_degree(v), 4);
  for (vid_t u = 0; u < 12; ++u) EXPECT_EQ(g.vertex_degree(u), 1);
  EXPECT_EQ(g.max_net_degree(), 4);
  EXPECT_EQ(g.max_vertex_degree(), 1);
}

TEST(BipartiteGraph, DuplicateEntriesCollapse) {
  Coo coo;
  coo.num_rows = 1;
  coo.num_cols = 2;
  coo.add(0, 1);
  coo.add(0, 1);
  coo.add(0, 0);
  const BipartiteGraph g = build_bipartite(std::move(coo));
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(BipartiteGraph, EmptyNetsAndVerticesAllowed) {
  Coo coo;
  coo.num_rows = 3;
  coo.num_cols = 3;
  coo.add(1, 1);
  const BipartiteGraph g = build_bipartite(std::move(coo));
  EXPECT_EQ(g.net_degree(0), 0);
  EXPECT_EQ(g.vertex_degree(2), 0);
  EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                  g.nptr(), g.nadj()));
}

TEST(BipartiteGraph, BuildRejectsMalformedCoo) {
  // Lengths are checked before any id is read: 100000 rows and 1 col.
  Coo lengths;
  lengths.num_rows = lengths.num_cols = 4;
  lengths.rows.assign(100000, 0);
  lengths.cols.assign(1, 0);
  EXPECT_THROW(build_bipartite(lengths), std::invalid_argument);
  lengths.cols.assign(100000, 0);
  lengths.vals.assign(3, 1.0);
  EXPECT_THROW(build_bipartite(lengths), std::invalid_argument);

  Coo range;
  range.num_rows = 2;
  range.num_cols = 3;
  range.add(2, 0);
  EXPECT_THROW(build_bipartite(range), std::out_of_range);
}

TEST(BipartiteGraph, CtorRejectsInconsistentHalves) {
  // The two halves of the one CSR side disagree: vptr ends at 1, vadj
  // holds 2 entries; vptr has 2 entries for 2 vertices.
  using testing::gate_verdict;
  EXPECT_EQ(gate_verdict([] { return BipartiteGraph(1, 1, {0, 1}, {0, 0}); }),
            "bad-input no row");
  EXPECT_EQ(gate_verdict([] { return BipartiteGraph(2, 1, {0, 1}, {0}); }),
            "bad-input no row");
  EXPECT_EQ(gate_verdict([] { return BipartiteGraph(-1, 1, {0}, {}); }),
            "out-of-range no row");
  EXPECT_EQ(gate_verdict([] { return BipartiteGraph(1, -1, {0, 0}, {}); }),
            "out-of-range no row");
}

TEST(BipartiteGraph, NetSideIsDerived) {
  // Vertex 0 in net {0}, vertex 1 in nets {0, 1}, vertex 2 in net {1}.
  const BipartiteGraph g(3, 2, {0, 1, 3, 4}, {0, 0, 1, 1});
  EXPECT_EQ(g.nptr(), (std::vector<eid_t>{0, 2, 4}));
  EXPECT_EQ(g.nadj(), (std::vector<vid_t>{0, 1, 1, 2}));
  // No vertex, no net, no edge: each side is one empty ptr entry deep.
  const BipartiteGraph none(0, 0, {0}, {});
  EXPECT_EQ(none.nptr(), (std::vector<eid_t>{0}));
  const BipartiteGraph no_nets(3, 0, {0, 0, 0, 0}, {});
  EXPECT_EQ(no_nets.max_net_degree(), 0);
  const BipartiteGraph no_vertices(0, 3, {0}, {});
  EXPECT_EQ(no_vertices.nptr(), (std::vector<eid_t>{0, 0, 0, 0}));
  EXPECT_EQ(no_vertices.nadj(), (std::vector<vid_t>{}));
}

TEST(BipartiteGraph, OutOfRangeNetIdIsTypedNotACrash) {
  // The kernels would index the net side with this id.
  try {
    (void)BipartiteGraph(2, 1, {0, 1, 2}, {0, 100000000});
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfRange);
    EXPECT_TRUE(e.is_input_error());
    EXPECT_NE(std::string(e.what()).find(
                  "[index-out-of-range] at vertex 1: net id 100000000"),
              std::string::npos)
        << e.what();
  }
}

TEST(BipartiteGraph, MaxNetDegreeIsLowerBoundSource) {
  const BipartiteGraph g = testing::single_net(7);
  EXPECT_EQ(g.max_net_degree(), 7);
}

TEST(BipartiteGraph, ValidateRejectsNonMonotonePtrWithoutOverread) {
  // vptr {0, 2, 1}: vertex 0 would span two entries of a one-entry
  // vadj, and vertex 1, whose range runs backwards, is the one named.
  EXPECT_EQ(testing::gate_verdict([] {
              return BipartiteGraph(2, 1, {0, 2, 1}, {0});
            }),
            "bad-input at 1");
  EXPECT_EQ(testing::gate_verdict([] {
              return BipartiteGraph(3, 1, {0, 1, 2, 1}, {0});
            }),
            "bad-input at 2");
}

/// The binary-search check used before the linear merge, kept as a
/// second reference: every list strictly ascending in range, and every
/// edge found on the other side, both ways.
bool reference_validate(const BipartiteGraph& g) {
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    const auto ns = g.nets(u);
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const vid_t v = ns[i];
      if (v < 0 || v >= g.num_nets()) return false;
      if (i > 0 && ns[i - 1] >= v) return false;
      const auto back = g.vtxs(v);
      if (!std::binary_search(back.begin(), back.end(), u)) return false;
    }
  }
  for (vid_t v = 0; v < g.num_nets(); ++v) {
    const auto vs = g.vtxs(v);
    for (std::size_t i = 0; i < vs.size(); ++i) {
      const vid_t u = vs[i];
      if (u < 0 || u >= g.num_vertices()) return false;
      if (i > 0 && vs[i - 1] >= u) return false;
      const auto fwd = g.nets(u);
      if (!std::binary_search(fwd.begin(), fwd.end(), v)) return false;
    }
  }
  return true;
}

/// Whether the edit makes a list of the vertex side bad for sure: the
/// others may leave a valid (different) graph.
bool always_refused(testing::CsrMutation m) {
  using testing::CsrMutation;
  return m == CsrMutation::kOutOfRange || m == CsrMutation::kDuplicate ||
         m == CsrMutation::kSwappedPair || m == CsrMutation::kPtrStart;
}

/// The constructor's verdict on the edited vertex side of `base` equals
/// the oracle's; an accepted side has the oracle's transpose for nets.
/// Returns whether it was refused.
bool expect_gate_matches_oracle(const BipartiteGraph& base,
                                const std::vector<eid_t>& vptr,
                                const std::vector<vid_t>& vadj,
                                const std::string& what) {
  const std::string want = testing::oracle_bipartite_verdict(
      base.num_vertices(), base.num_nets(), vptr, vadj);
  BipartiteGraph g;
  EXPECT_EQ(testing::gate_verdict([&] {
              g = BipartiteGraph(base.num_vertices(), base.num_nets(), vptr,
                                 vadj);
              return 0;
            }),
            want)
      << what;
  if (want == "ok") {
    EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                    g.nptr(), g.nadj()))
        << what;
    EXPECT_TRUE(reference_validate(g)) << what;
  }
  return want != "ok";
}

TEST(BipartiteGraph, ValidateMatchesReferenceUnderMutations) {
  using testing::CsrMutation;
  int single = 0;
  int paired = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const BipartiteGraph base = build_bipartite(gen_random_bipartite(
        30 + static_cast<vid_t>(seed) * 5, 40, 220, seed));
    ASSERT_TRUE(reference_validate(base));
    Xoshiro256 rng(seed);
    const auto mutated = [&](std::initializer_list<CsrMutation> edits,
                             std::vector<eid_t>& vptr,
                             std::vector<vid_t>& vadj) {
      vptr = base.vptr();
      vadj = base.vadj();
      for (const CsrMutation m : edits)
        if (!testing::mutate(m, vptr, vadj, base.num_nets(), rng))
          return false;
      return true;
    };
    std::vector<eid_t> vptr;
    std::vector<vid_t> vadj;
    for (const CsrMutation m : testing::kAllCsrMutations) {
      if (m == CsrMutation::kSelfLoop) continue;  // unipartite only
      for (int trial = 0; trial < 4; ++trial) {
        if (!mutated({m}, vptr, vadj)) continue;
        const std::string what =
            std::string(testing::to_string(m)) + ", seed " +
            std::to_string(seed);
        const bool refused = expect_gate_matches_oracle(base, vptr, vadj, what);
        if (always_refused(m)) {
          EXPECT_TRUE(refused) << what;
        }
        ++single;
      }
    }
    // Two random edits may cancel out, so only agreement is required.
    for (int trial = 0; trial < 40; ++trial) {
      const auto pick = [&] {
        CsrMutation m;
        do {
          m = testing::kAllCsrMutations[rng.bounded(
              std::size(testing::kAllCsrMutations))];
        } while (m == CsrMutation::kSelfLoop);
        return m;
      };
      const CsrMutation a = pick();
      const CsrMutation b = pick();
      if (!mutated({a, b}, vptr, vadj)) continue;
      expect_gate_matches_oracle(base, vptr, vadj,
                                 std::string(testing::to_string(a)) + " + " +
                                     testing::to_string(b));
      ++paired;
    }
  }
  // Every single edit applies on graphs this dense; most pairs do too.
  EXPECT_EQ(single, 8 * 6 * 4);
  EXPECT_GT(paired, 8 * 40 / 2);
}

}  // namespace
}  // namespace gcol
