#include "greedcolor/graph/bipartite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>

#include "csr_mutation.hpp"
#include "greedcolor/analyze/structure.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "test_util.hpp"

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
  EXPECT_TRUE(g.validate());
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
  EXPECT_TRUE(g.validate());
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
  EXPECT_TRUE(g.validate());
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
  // vptr claims 1 edge, nptr claims 2.
  EXPECT_THROW(BipartiteGraph(1, 1, {0, 1}, {0}, {0, 2}, {0, 0}),
               std::invalid_argument);
}

TEST(BipartiteGraph, MaxNetDegreeIsLowerBoundSource) {
  const BipartiteGraph g = testing::single_net(7);
  EXPECT_EQ(g.max_net_degree(), 7);
}

TEST(BipartiteGraph, ValidateRejectsNonMonotonePtrWithoutOverread) {
  // vptr {0, 2, 1}: vertex 0 would span two entries of a one-entry vadj.
  const BipartiteGraph g(2, 1, {0, 2, 1}, {0}, {0, 1}, {0});
  EXPECT_FALSE(g.validate());
  // Same for the net side.
  const BipartiteGraph h(1, 2, {0, 1}, {0}, {0, 2, 1}, {0});
  EXPECT_FALSE(h.validate());
}

/// The binary-search validate() used before the linear merge, kept as
/// the reference oracle. Like the original it builds spans straight from
/// the ptr arrays, so it may only see monotone ones.
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

/// Corrupt one half of `base` with `edits`; false if some edit found no
/// row to apply to.
bool mutated(const BipartiteGraph& base,
             std::initializer_list<testing::CsrMutation> edits,
             bool net_side, Xoshiro256& rng, BipartiteGraph& out) {
  auto vptr = base.vptr();
  auto vadj = base.vadj();
  auto nptr = base.nptr();
  auto nadj = base.nadj();
  for (const testing::CsrMutation m : edits) {
    const bool applied =
        net_side ? testing::mutate(m, nptr, nadj, base.num_vertices(), rng)
                 : testing::mutate(m, vptr, vadj, base.num_nets(), rng);
    if (!applied) return false;
  }
  out = BipartiteGraph(base.num_vertices(), base.num_nets(), std::move(vptr),
                       std::move(vadj), std::move(nptr), std::move(nadj));
  return true;
}

TEST(BipartiteGraph, ValidateMatchesReferenceUnderMutations) {
  using testing::CsrMutation;
  int single = 0;
  int paired = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const BipartiteGraph base = build_bipartite(gen_random_bipartite(
        30 + static_cast<vid_t>(seed) * 5, 40, 220, seed));
    ASSERT_TRUE(base.validate());
    ASSERT_TRUE(reference_validate(base));
    Xoshiro256 rng(seed);
    for (const bool net_side : {false, true}) {
      for (const CsrMutation m : testing::kAllCsrMutations) {
        if (m == CsrMutation::kSelfLoop) continue;  // unipartite only
        for (int trial = 0; trial < 4; ++trial) {
          BipartiteGraph g;
          if (!mutated(base, {m}, net_side, rng, g)) continue;
          const std::string what = std::string(testing::to_string(m)) +
                                   (net_side ? " on the net side" : "") +
                                   ", seed " + std::to_string(seed);
          EXPECT_FALSE(g.validate()) << what;
          EXPECT_FALSE(reference_validate(g)) << what;
          EXPECT_FALSE(analyze_graph(g).ok()) << what;
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
        BipartiteGraph g;
        if (!mutated(base, {a, b}, net_side, rng, g)) continue;
        const bool got = g.validate();
        EXPECT_EQ(got, reference_validate(g))
            << testing::to_string(a) << " + " << testing::to_string(b);
        EXPECT_EQ(got, analyze_graph(g).ok())
            << testing::to_string(a) << " + " << testing::to_string(b);
        ++paired;
      }
    }
  }
  // Every single edit applies on graphs this dense; most pairs do too.
  EXPECT_EQ(single, 8 * 2 * 6 * 4);
  EXPECT_GT(paired, 8 * 2 * 40 / 2);
}

}  // namespace
}  // namespace gcol
