#include "greedcolor/graph/csr.hpp"

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

using testing::complete_coo;
using testing::cycle_coo;
using testing::path_coo;
using testing::star_coo;

TEST(Graph, PathStructure) {
  const Graph g = build_graph(path_coo(5));
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_adjacency_entries(), 8);  // 4 undirected edges
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, NeighborsAreSortedUnique) {
  const Graph g = build_graph(cycle_coo(6));
  for (vid_t v = 0; v < 6; ++v) {
    const auto nb = g.neighbors(v);
    ASSERT_EQ(nb.size(), 2u);
    EXPECT_LT(nb[0], nb[1]);
  }
}

TEST(Graph, BuilderSymmetrizesOneDirectionalInput) {
  Coo coo;
  coo.num_rows = coo.num_cols = 3;
  coo.add(0, 1);  // only one direction given
  coo.add(1, 2);
  const Graph g = build_graph(std::move(coo));
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, BuilderDropsSelfLoopsAndDuplicates) {
  Coo coo;
  coo.num_rows = coo.num_cols = 3;
  coo.add(0, 0);
  coo.add(1, 1);
  coo.add(0, 1);
  coo.add(0, 1);
  coo.add(1, 0);
  const Graph g = build_graph(std::move(coo));
  EXPECT_EQ(g.num_adjacency_entries(), 2);
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, StarDegrees) {
  const Graph g = build_graph(star_coo(10));
  EXPECT_EQ(g.degree(0), 9);
  for (vid_t v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1);
}

TEST(Graph, CompleteGraphDegrees) {
  const Graph g = build_graph(complete_coo(6));
  for (vid_t v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, RejectsRectangular) {
  Coo coo;
  coo.num_rows = 2;
  coo.num_cols = 3;
  EXPECT_THROW(build_graph(std::move(coo)), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEntries) {
  Coo coo;
  coo.num_rows = coo.num_cols = 2;
  coo.add(0, 5);
  EXPECT_THROW(build_graph(std::move(coo)), std::out_of_range);
}

TEST(Graph, RejectsInconsistentCooLengths) {
  // Lengths are checked before any id is read: 100000 rows and 1 col.
  Coo coo;
  coo.num_rows = coo.num_cols = 4;
  coo.rows.assign(100000, 1);
  coo.cols.assign(1, 0);
  EXPECT_THROW(build_graph(coo), std::invalid_argument);
  coo.cols.assign(100000, 0);
  coo.vals.assign(3, 1.0);
  EXPECT_THROW(build_graph(coo), std::invalid_argument);
}

TEST(Graph, CtorRejectsBadPtrArray) {
  EXPECT_THROW(Graph(2, {0, 1}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(Graph(2, {0, 1, 3}, {1, 0}), std::invalid_argument);
}

TEST(Graph, ValidateRejectsNonMonotonePtrWithoutOverread) {
  // ptr {0, 2, 1}: vertex 0 would span two entries of a one-entry adj.
  const Graph g(2, {0, 2, 1}, {1});
  EXPECT_FALSE(g.validate());
}

/// The binary-search validate() used before the linear merge, kept as
/// the reference oracle. It binary-searches neighbors(u) before checking
/// that u's ptr entries are ordered, so it may only see monotone ptrs.
bool reference_validate(const Graph& g) {
  const auto& ptr = g.ptr();
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (ptr[static_cast<std::size_t>(v)] > ptr[static_cast<std::size_t>(v) + 1])
      return false;
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const vid_t u = nb[i];
      if (u < 0 || u >= g.num_vertices() || u == v) return false;
      if (i > 0 && nb[i - 1] >= u) return false;
      const auto back = g.neighbors(u);
      if (!std::binary_search(back.begin(), back.end(), v)) return false;
    }
  }
  return true;
}

TEST(Graph, ValidateMatchesReferenceUnderMutations) {
  using testing::CsrMutation;
  int single = 0;
  int paired = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const vid_t n = 40 + static_cast<vid_t>(seed) * 5;
    const Graph base = build_graph(gen_random_bipartite(n, n, 150, seed));
    ASSERT_TRUE(base.validate());
    ASSERT_TRUE(reference_validate(base));
    Xoshiro256 rng(seed);
    const auto mutated = [&](std::initializer_list<CsrMutation> edits,
                             std::vector<eid_t>& ptr,
                             std::vector<vid_t>& adj) {
      ptr = base.ptr();
      adj = base.adj();
      for (const CsrMutation m : edits)
        if (!testing::mutate(m, ptr, adj, n, rng)) return false;
      return true;
    };
    std::vector<eid_t> ptr;
    std::vector<vid_t> adj;
    for (const CsrMutation m : testing::kAllCsrMutations) {
      for (int trial = 0; trial < 4; ++trial) {
        ASSERT_TRUE(mutated({m}, ptr, adj)) << testing::to_string(m);
        if (m == CsrMutation::kPtrStart) {
          // The constructor already refuses ptr[0] != 0.
          EXPECT_THROW(Graph(n, ptr, adj), std::invalid_argument);
          continue;
        }
        const Graph g(n, ptr, adj);
        const std::string what = std::string(testing::to_string(m)) +
                                 ", seed " + std::to_string(seed);
        EXPECT_FALSE(g.validate()) << what;
        EXPECT_FALSE(reference_validate(g)) << what;
        EXPECT_FALSE(analyze_graph(g).ok()) << what;
        ++single;
      }
    }
    // Two random edits may cancel out, so only agreement is required.
    for (int trial = 0; trial < 80; ++trial) {
      const auto pick = [&] {
        CsrMutation m;
        do {
          m = testing::kAllCsrMutations[rng.bounded(
              std::size(testing::kAllCsrMutations))];
        } while (m == CsrMutation::kPtrStart);
        return m;
      };
      const CsrMutation a = pick();
      const CsrMutation b = pick();
      if (!mutated({a, b}, ptr, adj)) continue;
      const Graph g(n, ptr, adj);
      const bool got = g.validate();
      EXPECT_EQ(got, reference_validate(g))
          << testing::to_string(a) << " + " << testing::to_string(b);
      EXPECT_EQ(got, analyze_graph(g).ok())
          << testing::to_string(a) << " + " << testing::to_string(b);
      ++paired;
    }
  }
  EXPECT_EQ(single, 8 * 6 * 4);
  EXPECT_GT(paired, 8 * 80 / 2);
}

TEST(Graph, EmptyGraph) {
  const Graph g = build_graph([&] {
    Coo coo;
    coo.num_rows = coo.num_cols = 4;
    return coo;
  }());
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_adjacency_entries(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

}  // namespace
}  // namespace gcol
