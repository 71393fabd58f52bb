#include "greedcolor/graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
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
  EXPECT_EQ(testing::oracle_graph_verdict(g.num_vertices(), g.ptr(), g.adj()),
            "ok");
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
  EXPECT_EQ(testing::oracle_graph_verdict(g.num_vertices(), g.ptr(), g.adj()),
            "ok");
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
  EXPECT_EQ(testing::oracle_graph_verdict(g.num_vertices(), g.ptr(), g.adj()),
            "ok");
}

TEST(Graph, StarDegrees) {
  const Graph g = build_graph(star_coo(10));
  EXPECT_EQ(g.degree(0), 9);
  for (vid_t v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1);
}

TEST(Graph, CompleteGraphDegrees) {
  const Graph g = build_graph(complete_coo(6));
  for (vid_t v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5);
  EXPECT_EQ(testing::oracle_graph_verdict(g.num_vertices(), g.ptr(), g.adj()),
            "ok");
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
  EXPECT_EQ(testing::gate_verdict([] { return Graph(2, {0, 1}, {1, 0}); }),
            "bad-input no row");
  EXPECT_EQ(testing::gate_verdict([] { return Graph(2, {0, 1, 3}, {1, 0}); }),
            "bad-input no row");
  EXPECT_EQ(testing::gate_verdict([] { return Graph(1, {1, 1}, {0}); }),
            "bad-input at 0");
  EXPECT_EQ(testing::gate_verdict([] { return Graph(-1, {0}, {}); }),
            "out-of-range no row");
}

TEST(Graph, ValidateRejectsNonMonotonePtrWithoutOverread) {
  // ptr {0, 2, 1}: vertex 0 would span two entries of a one-entry adj.
  // Vertex 1 is the one whose range runs backwards.
  EXPECT_EQ(testing::gate_verdict([] { return Graph(2, {0, 2, 1}, {1}); }),
            "bad-input at 1");
}

TEST(Graph, CtorNamesTheFault) {
  const auto what = [](vid_t n, std::vector<eid_t> ptr,
                       std::vector<vid_t> adj) -> std::string {
    try {
      (void)Graph(n, std::move(ptr), std::move(adj));
    } catch (const Error& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(what(2, {0, 2, 3}, {0, 1, 0}),
            "Graph: [self-loop] at vertex 0: lists itself");
  EXPECT_EQ(what(3, {0, 1, 1, 1}, {1}),
            "Graph: [asymmetric-adjacency] at vertex 0: neighbor 1 does not "
            "list it back");
  EXPECT_EQ(what(3, {0, 2, 3, 4}, {2, 1, 0, 0}),
            "Graph: [unsorted-adjacency] at vertex 0: lists neighbor 1 "
            "after 2");
  EXPECT_EQ(what(2, {0, 2, 3}, {1, 1, 0}),
            "Graph: [duplicate-adjacency] at vertex 0: lists neighbor 1 twice");
}

TEST(Graph, OutOfRangeNeighborIsTypedNotACrash) {
  // The kernels would index the adjacency with this id.
  try {
    (void)Graph(2, {0, 1, 1}, {5});
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfRange);
    EXPECT_TRUE(e.is_input_error());
    EXPECT_NE(std::string(e.what()).find(
                  "[index-out-of-range] at vertex 0: neighbor id 5"),
              std::string::npos)
        << e.what();
  }
}

/// The binary-search check used before the linear merge, kept as a
/// second reference over raw arrays. It binary-searches neighbors(u)
/// before checking that u's ptr entries are ordered, so it may only see
/// monotone ptrs.
bool reference_validate(vid_t n, const std::vector<eid_t>& ptr,
                        const std::vector<vid_t>& adj) {
  if (ptr.front() != 0) return false;
  const auto list = [&](vid_t v) {
    return std::span<const vid_t>(
        adj.data() + ptr[static_cast<std::size_t>(v)],
        adj.data() + ptr[static_cast<std::size_t>(v) + 1]);
  };
  for (vid_t v = 0; v < n; ++v) {
    if (ptr[static_cast<std::size_t>(v)] > ptr[static_cast<std::size_t>(v) + 1])
      return false;
    const auto nb = list(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const vid_t u = nb[i];
      if (u < 0 || u >= n || u == v) return false;
      if (i > 0 && nb[i - 1] >= u) return false;
      const auto back = list(u);
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
    ASSERT_TRUE(reference_validate(n, base.ptr(), base.adj()));
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
    const auto verdict = [&](const std::vector<eid_t>& ptr,
                             const std::vector<vid_t>& adj) {
      return testing::gate_verdict([&] { return Graph(n, ptr, adj); });
    };
    std::vector<eid_t> ptr;
    std::vector<vid_t> adj;
    for (const CsrMutation m : testing::kAllCsrMutations) {
      for (int trial = 0; trial < 4; ++trial) {
        ASSERT_TRUE(mutated({m}, ptr, adj)) << testing::to_string(m);
        const std::string what = std::string(testing::to_string(m)) +
                                 ", seed " + std::to_string(seed);
        const std::string got = verdict(ptr, adj);
        EXPECT_EQ(got, testing::oracle_graph_verdict(n, ptr, adj)) << what;
        EXPECT_NE(got, "ok") << what;
        EXPECT_FALSE(reference_validate(n, ptr, adj)) << what;
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
      const std::string got = verdict(ptr, adj);
      EXPECT_EQ(got, testing::oracle_graph_verdict(n, ptr, adj))
          << testing::to_string(a) << " + " << testing::to_string(b);
      EXPECT_EQ(got == "ok", reference_validate(n, ptr, adj))
          << testing::to_string(a) << " + " << testing::to_string(b);
      ++paired;
    }
  }
  EXPECT_EQ(single, 8 * 7 * 4);
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
