// The graph constructors' structural gate, read as the analyzer it
// replaced, and the contract layer. The gate must accept everything the
// generators produce, refuse each class of hand-made CSR corruption with
// a typed error that names the first bad vertex and the fault in the
// analyzer's vocabulary (bad-pointer-array, index-out-of-range,
// unsorted-adjacency, duplicate-adjacency, self-loop,
// asymmetric-adjacency), and agree with the sequential oracle
// (validate_oracle.hpp) on the corrupted-input corpus. The contract
// macros must throw typed errors in checked builds and vanish in release.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "greedcolor/analyze/contract.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/graph/graph_stats.hpp"
#include "greedcolor/graph/mtx_io.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/prng.hpp"
#include "validate_oracle.hpp"

namespace gcol {
namespace {

/// The message the constructor call `make` throws, after checking that
/// the error is a typed input error with `code`; "accepted" if none.
template <class Make>
std::string refusal(const Make& make, ErrorCode code = ErrorCode::kBadInput) {
  try {
    (void)make();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_TRUE(e.is_input_error()) << e.what();
    return e.what();
  }
  return "accepted";
}

bool names(const std::string& what, const std::string& fault) {
  return what.find(fault) != std::string::npos;
}

// A tiny well-formed bipartite instance: vertex 0 in net {0},
// vertex 1 in nets {0,1}, vertex 2 in net {1}.
BipartiteGraph tiny_bipartite() {
  return BipartiteGraph(3, 2, {0, 1, 3, 4}, {0, 0, 1, 1});
}

TEST(AnalyzeBipartite, CleanGraphHasNoIssuesAndCorrectFacts) {
  const BipartiteGraph g = tiny_bipartite();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_nets(), 2);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.max_vertex_degree(), 2);
  EXPECT_EQ(g.max_net_degree(), 2);
  EXPECT_EQ(net_degree_stats(g).max, 2);  // L = max net degree
  EXPECT_TRUE(names(signature(g), "Lmax=2")) << signature(g);
}

TEST(AnalyzeBipartite, GeneratedGraphsAreClean) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const BipartiteGraph g =
        build_bipartite(gen_random_bipartite(60, 80, 300, seed));
    EXPECT_EQ(testing::oracle_bipartite_verdict(g.num_vertices(), g.num_nets(),
                                                g.vptr(), g.vadj()),
              "ok")
        << "seed " << seed;
    EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                    g.nptr(), g.nadj()))
        << "seed " << seed;
    EXPECT_EQ(net_degree_stats(g).max, g.max_net_degree());
  }
}

TEST(AnalyzeBipartite, UnsortedAdjacencyFlagged) {
  const std::string what =
      refusal([] { return BipartiteGraph(3, 2, {0, 1, 3, 4}, {0, 1, 0, 1}); });
  EXPECT_TRUE(
      names(what, "[unsorted-adjacency] at vertex 1: lists net 0 after 1"))
      << what;
}

TEST(AnalyzeBipartite, OutOfRangeIndexFlagged) {
  const std::string what = refusal(
      [] { return BipartiteGraph(3, 2, {0, 1, 3, 4}, {0, 0, 5, 1}); },
      ErrorCode::kOutOfRange);
  EXPECT_TRUE(names(what, "[index-out-of-range] at vertex 1: net id 5 "
                          "outside [0, 2)"))
      << what;
}

TEST(AnalyzeBipartite, DuplicateAdjacencyFlagged) {
  const std::string what =
      refusal([] { return BipartiteGraph(3, 2, {0, 1, 3, 4}, {0, 0, 0, 1}); });
  EXPECT_TRUE(
      names(what, "[duplicate-adjacency] at vertex 1: lists net 0 twice"))
      << what;
}

TEST(AnalyzeBipartite, NonMonotonePointerArrayFlagged) {
  const std::string what =
      refusal([] { return BipartiteGraph(3, 2, {0, 3, 1, 4}, {0, 0, 1, 1}); });
  EXPECT_TRUE(names(what, "[bad-pointer-array] at vertex 1: vptr decreases"))
      << what;
}

TEST(AnalyzeBipartite, FirstBadVertexIsNamed) {
  // Every entry is out of range: the first vertex is the one named, at
  // every team size.
  for (const int t : {1, 2, 4}) {
    const ThreadCountScope team(t);
    const std::string what = refusal(
        [] { return BipartiteGraph(3, 2, {0, 1, 3, 4}, {9, 9, 9, 9}); },
        ErrorCode::kOutOfRange);
    EXPECT_TRUE(names(what, "at vertex 0:")) << what;
  }
}

TEST(AnalyzeUnipartite, CleanGraphHasNoIssues) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Coo coo = gen_random_bipartite(80, 80, 400, seed);
    coo.symmetrize();
    const Graph g = build_graph(coo);
    EXPECT_EQ(testing::oracle_graph_verdict(g.num_vertices(), g.ptr(), g.adj()),
              "ok")
        << "seed " << seed;
    EXPECT_EQ(degree_stats(g).max + 1, g.max_degree() + 1);  // L
  }
}

TEST(AnalyzeUnipartite, SelfLoopFlagged) {
  const std::string what =
      refusal([] { return Graph(2, {0, 2, 3}, {0, 1, 0}); });
  EXPECT_TRUE(names(what, "[self-loop] at vertex 0")) << what;
}

TEST(AnalyzeUnipartite, AsymmetricAdjacencyFlagged) {
  const std::string what = refusal([] { return Graph(3, {0, 1, 1, 1}, {1}); });
  EXPECT_TRUE(names(what, "[asymmetric-adjacency] at vertex 0")) << what;
}

TEST(AnalyzeUnipartite, NonMonotonePointerArrayFlagged) {
  const std::string what = refusal([] { return Graph(2, {0, 2, 1}, {1}); });
  EXPECT_TRUE(names(what, "[bad-pointer-array] at vertex 1: ptr decreases"))
      << what;
}

// The corrupted-input corpus from the fuzz suite: whatever survives the
// parser either builds a graph whose vertex side the oracle accepts and
// whose net side is its transpose, or is refused with a typed error.
TEST(AnalyzeCorpus, AgreesWithValidateOnCorruptedInputs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Coo coo = gen_random_bipartite(
        40 + static_cast<vid_t>(seed * 7), 60, 250, seed);
    std::ostringstream out;
    write_matrix_market(out, coo);
    const std::string good = out.str();

    FaultPlan plan;
    plan.seed = seed;
    plan.flip_byte_rate = 0.02;
    plan.truncate_fraction = 0.6;
    for (std::uint64_t variant = 0; variant < 12; ++variant) {
      std::istringstream in(plan.corrupt_bytes(good, variant));
      try {
        const BipartiteGraph g = build_bipartite(read_matrix_market(in));
        EXPECT_EQ(testing::oracle_bipartite_verdict(
                      g.num_vertices(), g.num_nets(), g.vptr(), g.vadj()),
                  "ok")
            << "seed " << seed << " variant " << variant;
        EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                        g.nptr(), g.nadj()))
            << "seed " << seed << " variant " << variant;
      } catch (const Error& e) {
        // Typed rejection at parse/build is the other allowed outcome.
        EXPECT_TRUE(e.is_input_error()) << e.what();
      }
    }
  }
}

TEST(Contract, FailThrowsTypedInternalInvariant) {
  try {
    contract::fail("somefile.cpp", 42, "x > 0", "forced by test");
    FAIL() << "contract::fail returned";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternalInvariant);
    EXPECT_NE(std::string(e.what()).find("somefile.cpp:42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("x > 0"), std::string::npos);
  }
}

TEST(Contract, MacroMatchesBuildMode) {
  if constexpr (contract::kContractsEnabled) {
    const std::uint64_t before = contract::checks_evaluated();
    GCOL_CONTRACT(1 + 1 == 2, "arithmetic still works");
    GCOL_ASSUME(true);
    EXPECT_GE(contract::checks_evaluated(), before + 2);
    EXPECT_THROW({ GCOL_CONTRACT(false, "forced"); }, Error);
    EXPECT_THROW(GCOL_ASSUME(false), Error);
  } else {
    // Release builds: the macros neither evaluate nor throw.
    EXPECT_NO_THROW({ GCOL_CONTRACT(false, "never evaluated"); });
    EXPECT_NO_THROW(GCOL_ASSUME(false));
    EXPECT_EQ(contract::checks_evaluated(), 0u);
  }
}

TEST(Contract, CheckedIngestAcceptsWellFormedGraphs) {
  // The constructors' gate runs in every build; a clean instance must
  // pass through it unchanged.
  const BipartiteGraph g =
      build_bipartite(gen_random_bipartite(50, 50, 200, 0xA11CE));
  EXPECT_TRUE(testing::oracle_is_strict_transpose(g.vptr(), g.vadj(),
                                                  g.nptr(), g.nadj()));
  Coo coo = gen_random_bipartite(40, 40, 160, 0xB0B);
  coo.symmetrize();
  const Graph h = build_graph(coo);
  EXPECT_EQ(testing::oracle_graph_verdict(h.num_vertices(), h.ptr(), h.adj()),
            "ok");
}

}  // namespace
}  // namespace gcol
