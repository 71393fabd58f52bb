// End-to-end coverage for the locality pass: reordering must be a pure
// renumbering (identical colors at one thread, valid in parallel).
#include <gtest/gtest.h>

#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/options.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/order/ordering.hpp"

namespace gcol {
namespace {

const BipartiteGraph& test_bgraph() {
  static const BipartiteGraph g =
      build_bipartite(gen_clique_union(1500, 520, 2, 40, 1.6, 42));
  return g;
}

const Graph& test_ugraph() {
  static const Graph g = build_graph(gen_mesh2d(28, 28, 1));
  return g;
}

TEST(Locality, BgpcFullReorderIsPureRenumbering) {
  const auto& g = test_bgraph();
  ColoringOptions base = bgpc_preset("V-V");
  base.num_threads = 1;
  const auto plain = color_bgpc(g, base);
  for (const LocalityMode mode :
       {LocalityMode::kSortAdj, LocalityMode::kFull}) {
    ColoringOptions opt = base;
    opt.locality = mode;
    const auto reordered = color_bgpc(g, opt);
    EXPECT_EQ(plain.colors, reordered.colors) << to_string(mode);
  }
}

TEST(Locality, BgpcParallelLocalityValid) {
  const auto& g = test_bgraph();
  for (const auto& name : {"V-V", "N1-N2"}) {
    for (const LocalityMode mode :
         {LocalityMode::kSortAdj, LocalityMode::kFull}) {
      ColoringOptions opt = bgpc_preset(name);
      opt.num_threads = 4;
      opt.locality = mode;
      const auto r = color_bgpc(g, opt);
      EXPECT_TRUE(is_valid_bgpc(g, r.colors))
          << name << " locality=" << to_string(mode);
    }
  }
}

TEST(Locality, BgpcLocalityRespectsExplicitOrder) {
  const auto& g = test_bgraph();
  const auto order = make_ordering(g, OrderingKind::kSmallestLast);
  ColoringOptions base = bgpc_preset("V-V");
  base.num_threads = 1;
  const auto plain = color_bgpc(g, base, order);
  ColoringOptions opt = base;
  opt.locality = LocalityMode::kFull;
  const auto reordered = color_bgpc(g, opt, order);
  EXPECT_EQ(plain.colors, reordered.colors);
}

TEST(Locality, D2gcFullReorderIsPureRenumbering) {
  const auto& g = test_ugraph();
  ColoringOptions base = d2gc_preset("V-V-64D");
  base.num_threads = 1;
  const auto plain = color_d2gc(g, base);
  for (const LocalityMode mode :
       {LocalityMode::kSortAdj, LocalityMode::kFull}) {
    ColoringOptions opt = base;
    opt.locality = mode;
    const auto reordered = color_d2gc(g, opt);
    EXPECT_EQ(plain.colors, reordered.colors) << to_string(mode);
  }
}

TEST(Locality, D2gcParallelLocalityValid) {
  const auto& g = test_ugraph();
  for (const LocalityMode mode :
       {LocalityMode::kSortAdj, LocalityMode::kFull}) {
    ColoringOptions opt = d2gc_preset("N1-N2");
    opt.num_threads = 4;
    opt.locality = mode;
    const auto r = color_d2gc(g, opt);
    EXPECT_TRUE(is_valid_d2gc(g, r.colors)) << "locality=" << to_string(mode);
  }
}

}  // namespace
}  // namespace gcol
