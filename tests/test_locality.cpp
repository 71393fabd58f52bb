// End-to-end coverage for the locality pass: reordering must be a pure
// renumbering (identical colors at one thread, valid in parallel).
#include <gtest/gtest.h>

#include <stdexcept>
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
  ColoringOptions opt = base;
  opt.locality = LocalityMode::kFull;
  EXPECT_EQ(plain.colors, color_bgpc(g, opt).colors);
}

TEST(Locality, BgpcParallelLocalityValid) {
  const auto& g = test_bgraph();
  for (const auto& name : {"V-V", "N1-N2"}) {
    ColoringOptions opt = bgpc_preset(name);
    opt.num_threads = 4;
    opt.locality = LocalityMode::kFull;
    EXPECT_TRUE(is_valid_bgpc(g, color_bgpc(g, opt).colors)) << name;
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
  ColoringOptions opt = base;
  opt.locality = LocalityMode::kFull;
  EXPECT_EQ(plain.colors, color_d2gc(g, opt).colors);
}

TEST(Locality, D2gcParallelLocalityValid) {
  const auto& g = test_ugraph();
  ColoringOptions opt = d2gc_preset("N1-N2");
  opt.num_threads = 4;
  opt.locality = LocalityMode::kFull;
  EXPECT_TRUE(is_valid_d2gc(g, color_d2gc(g, opt).colors));
}

TEST(Locality, ParsesOnlyNoneAndFull) {
  for (const LocalityMode mode : {LocalityMode::kNone, LocalityMode::kFull})
    EXPECT_EQ(locality_from_string(to_string(mode)), mode);
  EXPECT_THROW((void)locality_from_string("sort"), std::invalid_argument);
}

}  // namespace
}  // namespace gcol
