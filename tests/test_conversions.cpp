#include <gtest/gtest.h>

#include "greedcolor/graph/builder.hpp"
#include "test_util.hpp"
#include "validate_oracle.hpp"

namespace gcol {
namespace {

TEST(Conversions, BipartiteToGraphDropsDiagonal) {
  Coo coo;
  coo.num_rows = coo.num_cols = 3;
  coo.add(0, 0);
  coo.add(0, 1);
  coo.add(1, 0);
  coo.add(1, 1);
  coo.add(2, 2);
  const BipartiteGraph bg = build_bipartite(std::move(coo));
  const Graph g = bipartite_to_graph(bg);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_adjacency_entries(), 2);  // edge {0,1} both directions
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(testing::oracle_graph_verdict(g.num_vertices(), g.ptr(), g.adj()),
            "ok");
}

TEST(Conversions, BipartiteToGraphRequiresSquare) {
  Coo coo;
  coo.num_rows = 2;
  coo.num_cols = 3;
  coo.add(0, 0);
  const BipartiteGraph bg = build_bipartite(std::move(coo));
  EXPECT_THROW(bipartite_to_graph(bg), std::invalid_argument);
}

TEST(Conversions, ClosedNeighborhoodNets) {
  const Graph g = build_graph(testing::path_coo(4));
  const BipartiteGraph bg = graph_to_bipartite_closed(g);
  EXPECT_EQ(bg.num_vertices(), 4);
  EXPECT_EQ(bg.num_nets(), 4);
  // Net of vertex 1 on the path 0-1-2-3 is N[1] = {0,1,2}.
  const auto net1 = bg.vtxs(1);
  EXPECT_EQ(std::vector<vid_t>(net1.begin(), net1.end()),
            (std::vector<vid_t>{0, 1, 2}));
  // Max net degree = 1 + max graph degree.
  EXPECT_EQ(bg.max_net_degree(), g.max_degree() + 1);
}

TEST(Conversions, ClosedNetsCoverAllDistance2Pairs) {
  const Graph g = build_graph(testing::cycle_coo(6));
  const BipartiteGraph bg = graph_to_bipartite_closed(g);
  // On C6, vertices 0 and 2 are at distance 2: they must share a net
  // (namely N[1]).
  bool share = false;
  for (const vid_t v : bg.nets(0)) {
    for (const vid_t u : bg.vtxs(v))
      if (u == 2) share = true;
  }
  EXPECT_TRUE(share);
  // Vertices 0 and 3 are at distance 3: no shared net.
  for (const vid_t v : bg.nets(0))
    for (const vid_t u : bg.vtxs(v)) EXPECT_NE(u, 3);
}

TEST(Conversions, RoundTripPreservesAdjacency) {
  const Graph g = build_graph(testing::complete_coo(5));
  // complete graph -> bipartite with diagonal -> back to graph
  Coo coo;
  coo.num_rows = coo.num_cols = 5;
  for (vid_t v = 0; v < 5; ++v) {
    coo.add(v, v);
    for (const vid_t u : g.neighbors(v)) coo.add(v, u);
  }
  const Graph g2 = bipartite_to_graph(build_bipartite(std::move(coo)));
  EXPECT_EQ(g2.num_adjacency_entries(), g.num_adjacency_entries());
  for (vid_t v = 0; v < 5; ++v) EXPECT_EQ(g2.degree(v), g.degree(v));
}

}  // namespace
}  // namespace gcol
