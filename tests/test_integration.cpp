// Cross-module integration: file IO -> graph -> ordering -> coloring ->
// verification -> post-processing, plus the Jacobian-compression
// round-trip that motivates BGPC, and a full registry sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/color_stats.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/graph/mtx_io.hpp"
#include "greedcolor/order/ordering.hpp"
#include "greedcolor/util/prng.hpp"

namespace gcol {
namespace {

TEST(Integration, MtxFileToValidColoring) {
  const std::string path = ::testing::TempDir() + "gcol_integration.mtx";
  {
    PowerLawBipartiteParams p;
    p.rows = 120;
    p.cols = 400;
    p.min_deg = 2;
    p.max_deg = 60;
    p.seed = 55;
    write_matrix_market_file(path, gen_powerlaw_bipartite(p));
  }
  const BipartiteGraph g = build_bipartite(read_matrix_market_file(path));
  std::remove(path.c_str());

  const auto order = make_ordering(g, OrderingKind::kSmallestLast);
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 2;
  auto r = color_bgpc(g, opt, order);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  const color_t improved = recolor_bgpc_to_fixpoint(g, r.colors);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  EXPECT_LE(improved, r.num_colors);
}

TEST(Integration, JacobianCompressionRoundTrip) {
  // The motivating application: structurally-orthogonal column groups
  // let a sparse Jacobian J be recovered from J*S where S has one
  // column per color. Recovery is exact iff the coloring is a valid
  // BGPC of J's pattern.
  Xoshiro256 rng(2024);
  Coo coo;
  coo.num_rows = 80;
  coo.num_cols = 120;
  for (vid_t r = 0; r < coo.num_rows; ++r) {
    const int deg = 2 + static_cast<int>(rng.bounded(6));
    for (int k = 0; k < deg; ++k)
      coo.add(r, static_cast<vid_t>(rng.bounded(120)),
              1.0 + rng.uniform());
  }
  coo.sort_and_dedup();
  const Coo jac = coo;  // keep values
  const BipartiteGraph g = build_bipartite(coo);

  const auto res = color_bgpc(g, bgpc_preset("N1-N2"));
  ASSERT_TRUE(is_valid_bgpc(g, res.colors));
  const color_t p = res.num_colors;

  // Compressed product B = J * S, S[j][c] = 1 iff color(j) == c.
  std::vector<double> b(static_cast<std::size_t>(jac.num_rows) * p, 0.0);
  for (std::size_t i = 0; i < jac.rows.size(); ++i) {
    const auto row = static_cast<std::size_t>(jac.rows[i]);
    const auto col = static_cast<std::size_t>(
        res.colors[static_cast<std::size_t>(jac.cols[i])]);
    b[row * p + col] += jac.vals[i];
  }
  // Direct recovery: J[r][j] = B[r][color(j)] for structural nonzeros.
  for (std::size_t i = 0; i < jac.rows.size(); ++i) {
    const auto row = static_cast<std::size_t>(jac.rows[i]);
    const auto col = static_cast<std::size_t>(
        res.colors[static_cast<std::size_t>(jac.cols[i])]);
    EXPECT_DOUBLE_EQ(b[row * p + col], jac.vals[i])
        << "entry (" << jac.rows[i] << "," << jac.cols[i] << ")";
  }
}

TEST(Integration, FullRegistrySweepIsValid) {
  // t=4 colorings over the registry: BGPC V-V, V-N2 and N1-N2 on every
  // dataset, D2GC V-V-64D and N1-N2 on every D2GC dataset.
  for (const auto& name : dataset_names()) {
    const BipartiteGraph g = load_bipartite(name);
    for (const char* algo : {"V-V", "V-N2", "N1-N2"}) {
      ColoringOptions opt = bgpc_preset(algo);
      opt.num_threads = 4;
      const auto r = color_bgpc(g, opt);
      const auto violation = check_bgpc(g, r.colors);
      EXPECT_FALSE(violation.has_value())
          << name << " " << algo << ": "
          << (violation ? violation->to_string() : "");
      EXPECT_GE(r.num_colors, g.max_net_degree()) << name << " " << algo;
      EXPECT_FALSE(r.sequential_fallback) << name << " " << algo;
    }
  }
  for (const auto& name : dataset_names(/*d2gc_only=*/true)) {
    const Graph g = load_graph(name);
    for (const char* algo : {"V-V-64D", "N1-N2"}) {
      ColoringOptions opt = d2gc_preset(algo);
      opt.num_threads = 4;
      const auto r = color_d2gc(g, opt);
      const auto violation = check_d2gc(g, r.colors);
      EXPECT_FALSE(violation.has_value())
          << name << " " << algo << ": "
          << (violation ? violation->to_string() : "");
      EXPECT_GE(r.num_colors, g.max_degree() + 1) << name << " " << algo;
      EXPECT_FALSE(r.sequential_fallback) << name << " " << algo;
    }
  }
}

TEST(Integration, ColorClassesPartitionTheVertexSet) {
  const BipartiteGraph g = load_bipartite("nlpkkt_s");
  const auto r = color_bgpc(g, bgpc_preset("V-N2"));
  const auto stats = color_class_stats(r.colors);
  vid_t total = 0;
  for (const vid_t c : stats.cardinality) total += c;
  EXPECT_EQ(total, g.num_vertices());
}

TEST(Integration, MaxRoundsFallbackProducesValidColoring) {
  // Force the safety valve with max_rounds=1 on a conflict-rich run.
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(2000, 700, 2, 70, 1.7, 61));
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.max_rounds = 1;
  opt.num_threads = 4;
  const auto r = color_bgpc(g, opt);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  // On a single hardware thread round 1 may finish conflict-free; only
  // require the fallback to have produced validity, not to have fired.
}

}  // namespace
}  // namespace gcol
