// Behaviour lock for the speculative engines: single-thread colorings
// and work counters pinned per (graph, preset, balance) case.
//
// At num_threads = 1 every preset is deterministic, so a refactor or a
// kernel optimization that keeps the algorithm must reproduce each case
// exactly: the FNV-1a hash of the colors, the round count, and the
// per-round edges_visited / color_probes of both phases (hashed into
// one word). The inputs are small seeded generator graphs whose
// adjacency lists are mostly longer than 16 entries and not multiples
// of 16, so the distance-2 walks take both the vector blocks and the
// scalar tails of the color-access seam (kernels_common.hpp).
//
// The forbidden set is pinned to the paper's stamped arrays. The
// adaptive engine's per-phase choice is a build-time platform property
// (DESIGN.md §8); pinning it here would lock the platform, not the
// algorithm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"

namespace gcol {
namespace {

struct Golden {
  const char* name;
  std::uint64_t colors_fnv;
  int rounds;
  std::uint64_t counters_fnv;
};

// Generated at the commit that introduced this file, before the vector
// seam existed; any change here is a behaviour change and needs a
// reason in CHANGES.md.
const Golden kGoldens[] = {
    {"bgpc/rand/V-V/none", 0x09bb132527ea4855ULL, 1, 0xa6a886149f69f31cULL},
    {"bgpc/rand/V-V/B1", 0xb81907be113999a6ULL, 1, 0xb9aa524d4ff44b22ULL},
    {"bgpc/rand/V-V/B2", 0x2fbf84fb38dff875ULL, 1, 0x84cd3cd9d5bd0195ULL},
    {"bgpc/rand/V-V-64/none", 0x09bb132527ea4855ULL, 1, 0xa6a886149f69f31cULL},
    {"bgpc/rand/V-V-64/B1", 0xb81907be113999a6ULL, 1, 0xb9aa524d4ff44b22ULL},
    {"bgpc/rand/V-V-64/B2", 0x2fbf84fb38dff875ULL, 1, 0x84cd3cd9d5bd0195ULL},
    {"bgpc/rand/V-V-64D/none", 0x09bb132527ea4855ULL, 1, 0xa6a886149f69f31cULL},
    {"bgpc/rand/V-V-64D/B1", 0xb81907be113999a6ULL, 1, 0xb9aa524d4ff44b22ULL},
    {"bgpc/rand/V-V-64D/B2", 0x2fbf84fb38dff875ULL, 1, 0x84cd3cd9d5bd0195ULL},
    {"bgpc/rand/V-Ninf/none", 0x09bb132527ea4855ULL, 1, 0x3b5f00019af29336ULL},
    {"bgpc/rand/V-Ninf/B1", 0xb81907be113999a6ULL, 1, 0x01d81b22c41ee4e0ULL},
    {"bgpc/rand/V-Ninf/B2", 0x2fbf84fb38dff875ULL, 1, 0xc2395a79d9f58a27ULL},
    {"bgpc/rand/V-N1/none", 0x09bb132527ea4855ULL, 1, 0x3b5f00019af29336ULL},
    {"bgpc/rand/V-N1/B1", 0xb81907be113999a6ULL, 1, 0x01d81b22c41ee4e0ULL},
    {"bgpc/rand/V-N1/B2", 0x2fbf84fb38dff875ULL, 1, 0xc2395a79d9f58a27ULL},
    {"bgpc/rand/V-N2/none", 0x09bb132527ea4855ULL, 1, 0x3b5f00019af29336ULL},
    {"bgpc/rand/V-N2/B1", 0xb81907be113999a6ULL, 1, 0x01d81b22c41ee4e0ULL},
    {"bgpc/rand/V-N2/B2", 0x2fbf84fb38dff875ULL, 1, 0xc2395a79d9f58a27ULL},
    {"bgpc/rand/N1-N2/none", 0xe5a66a3751dfb310ULL, 2, 0xad1ecccd670d947eULL},
    {"bgpc/rand/N1-N2/B1", 0x8cb70a9188e9ced4ULL, 2, 0xfc0ae05cb4174e0dULL},
    {"bgpc/rand/N1-N2/B2", 0xd59b26e145617506ULL, 2, 0x57ed3ee68dd57768ULL},
    {"bgpc/rand/N2-N2/none", 0x23c6bd0e93ccfff8ULL, 3, 0x85f7dd9e4bc11529ULL},
    {"bgpc/rand/N2-N2/B1", 0xc4c3be5ff2eb4eefULL, 3, 0xdd468bbfb06fa1d7ULL},
    {"bgpc/rand/N2-N2/B2", 0x5ab3d4d5d9fa072cULL, 3, 0x24b50fd33c6c691bULL},
    {"bgpc/rand/sequential", 0x09bb132527ea4855ULL, 1, 0x13c10be91c403e52ULL},
    {"bgpc/cliq/V-V/none", 0x299d0a85feb658f0ULL, 1, 0xdc945069518b77a3ULL},
    {"bgpc/cliq/V-V/B1", 0x58a92f1ff06ec211ULL, 1, 0x3f557e3cb3655584ULL},
    {"bgpc/cliq/V-V/B2", 0xb1a9d9fddd5ef570ULL, 1, 0x1df53c2784e2b901ULL},
    {"bgpc/cliq/V-V-64/none", 0x299d0a85feb658f0ULL, 1, 0xdc945069518b77a3ULL},
    {"bgpc/cliq/V-V-64/B1", 0x58a92f1ff06ec211ULL, 1, 0x3f557e3cb3655584ULL},
    {"bgpc/cliq/V-V-64/B2", 0xb1a9d9fddd5ef570ULL, 1, 0x1df53c2784e2b901ULL},
    {"bgpc/cliq/V-V-64D/none", 0x299d0a85feb658f0ULL, 1, 0xdc945069518b77a3ULL},
    {"bgpc/cliq/V-V-64D/B1", 0x58a92f1ff06ec211ULL, 1, 0x3f557e3cb3655584ULL},
    {"bgpc/cliq/V-V-64D/B2", 0xb1a9d9fddd5ef570ULL, 1, 0x1df53c2784e2b901ULL},
    {"bgpc/cliq/V-Ninf/none", 0x299d0a85feb658f0ULL, 1, 0x88662c21a4d6dcfdULL},
    {"bgpc/cliq/V-Ninf/B1", 0x58a92f1ff06ec211ULL, 1, 0x801e1191e3727e22ULL},
    {"bgpc/cliq/V-Ninf/B2", 0xb1a9d9fddd5ef570ULL, 1, 0xcbb4de8080c67bd3ULL},
    {"bgpc/cliq/V-N1/none", 0x299d0a85feb658f0ULL, 1, 0x88662c21a4d6dcfdULL},
    {"bgpc/cliq/V-N1/B1", 0x58a92f1ff06ec211ULL, 1, 0x801e1191e3727e22ULL},
    {"bgpc/cliq/V-N1/B2", 0xb1a9d9fddd5ef570ULL, 1, 0xcbb4de8080c67bd3ULL},
    {"bgpc/cliq/V-N2/none", 0x299d0a85feb658f0ULL, 1, 0x88662c21a4d6dcfdULL},
    {"bgpc/cliq/V-N2/B1", 0x58a92f1ff06ec211ULL, 1, 0x801e1191e3727e22ULL},
    {"bgpc/cliq/V-N2/B2", 0xb1a9d9fddd5ef570ULL, 1, 0xcbb4de8080c67bd3ULL},
    {"bgpc/cliq/N1-N2/none", 0xdce8021979af92a1ULL, 2, 0xb5460126e5d3255eULL},
    {"bgpc/cliq/N1-N2/B1", 0x3979605bdc05c675ULL, 2, 0x668fbe298f4510e7ULL},
    {"bgpc/cliq/N1-N2/B2", 0xdc2e4e7ffa25316cULL, 2, 0x36dc6cfd511d0e1bULL},
    {"bgpc/cliq/N2-N2/none", 0x6d8af88ec2afad59ULL, 3, 0xc9fd3f8d225acd92ULL},
    {"bgpc/cliq/N2-N2/B1", 0xb7620c60a46c20abULL, 3, 0x50a8c7f9e87b0646ULL},
    {"bgpc/cliq/N2-N2/B2", 0xf6d070708171c635ULL, 3, 0xa409a33c7f18772fULL},
    {"bgpc/cliq/sequential", 0x299d0a85feb658f0ULL, 1, 0xe8abe8f667fb3efdULL},
    {"d2gc/mesh/V-V-64D/none", 0x560d09941a67e929ULL, 1, 0x5f7c673d9390969eULL},
    {"d2gc/mesh/V-V-64D/B1", 0x30c2c610c28a3739ULL, 1, 0x65778fb597dadadaULL},
    {"d2gc/mesh/V-V-64D/B2", 0x560d09941a67e929ULL, 1, 0xbfed6ecb7376ed70ULL},
    {"d2gc/mesh/V-N1/none", 0x560d09941a67e929ULL, 1, 0x35e805260de2933dULL},
    {"d2gc/mesh/V-N1/B1", 0x30c2c610c28a3739ULL, 1, 0x33c22cd90e180cd1ULL},
    {"d2gc/mesh/V-N1/B2", 0x560d09941a67e929ULL, 1, 0x4d4413e863e87777ULL},
    {"d2gc/mesh/V-N2/none", 0x560d09941a67e929ULL, 1, 0x35e805260de2933dULL},
    {"d2gc/mesh/V-N2/B1", 0x30c2c610c28a3739ULL, 1, 0x33c22cd90e180cd1ULL},
    {"d2gc/mesh/V-N2/B2", 0x560d09941a67e929ULL, 1, 0x4d4413e863e87777ULL},
    {"d2gc/mesh/N1-N2/none", 0x5281aa3cf67d1375ULL, 1, 0x90212d02afd1ec9cULL},
    {"d2gc/mesh/N1-N2/B1", 0x33eccdef64189d86ULL, 2, 0xd2acf4b656d746efULL},
    {"d2gc/mesh/N1-N2/B2", 0x15b6c0deffa68862ULL, 2, 0x3b8c871a3edd9c94ULL},
    {"d2gc/mesh/sequential", 0x560d09941a67e929ULL, 1, 0x2a3155c4ac9ab961ULL},
    {"d2gc/geom/V-V-64D/none", 0x4f89e903faab9c3eULL, 1, 0xe362cb452121242eULL},
    {"d2gc/geom/V-V-64D/B1", 0x8970c6b1a453fbacULL, 1, 0xee0d4c7e956099c0ULL},
    {"d2gc/geom/V-V-64D/B2", 0xf9dcc90a3b7f259bULL, 1, 0xa88a40aaff363911ULL},
    {"d2gc/geom/V-N1/none", 0x4f89e903faab9c3eULL, 1, 0x533959c0a82908beULL},
    {"d2gc/geom/V-N1/B1", 0x8970c6b1a453fbacULL, 1, 0xbafce608ded02a04ULL},
    {"d2gc/geom/V-N1/B2", 0xf9dcc90a3b7f259bULL, 1, 0xfc0c6c89815ecd21ULL},
    {"d2gc/geom/V-N2/none", 0x4f89e903faab9c3eULL, 1, 0x533959c0a82908beULL},
    {"d2gc/geom/V-N2/B1", 0x8970c6b1a453fbacULL, 1, 0xbafce608ded02a04ULL},
    {"d2gc/geom/V-N2/B2", 0xf9dcc90a3b7f259bULL, 1, 0xfc0c6c89815ecd21ULL},
    {"d2gc/geom/N1-N2/none", 0x1153d09dcd772f86ULL, 2, 0xe28e61117b8a2889ULL},
    {"d2gc/geom/N1-N2/B1", 0xe08bf1d458b3d163ULL, 2, 0x44d55766a59a1dd0ULL},
    {"d2gc/geom/N1-N2/B2", 0x878259993fb51954ULL, 2, 0x396d06d0e3d45358ULL},
    {"d2gc/geom/sequential", 0x4f89e903faab9c3eULL, 1, 0x5390872258ed5684ULL},
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t colors_hash(const std::vector<color_t>& colors) {
  Fnv f;
  f.add(colors.size());
  for (const color_t c : colors) f.add(static_cast<std::uint32_t>(c));
  return f.value();
}

std::uint64_t counters_hash(const ColoringResult& r) {
  Fnv f;
  f.add(r.iterations.size());
  for (const IterationStats& it : r.iterations) {
    f.add(it.color_counters.edges_visited);
    f.add(it.color_counters.color_probes);
    f.add(it.conflict_counters.edges_visited);
    f.add(it.conflict_counters.color_probes);
  }
  return f.value();
}

const Golden* find_golden(const std::string& name) {
  for (const Golden& g : kGoldens)
    if (name == g.name) return &g;
  return nullptr;
}

void expect_golden(const std::string& name, const ColoringResult& r) {
  const std::uint64_t ch = colors_hash(r.colors);
  const std::uint64_t kh = counters_hash(r);
  char line[160];
  std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxULL, %d, 0x%016llxULL},",
                name.c_str(), static_cast<unsigned long long>(ch), r.rounds,
                static_cast<unsigned long long>(kh));
  const Golden* g = find_golden(name);
  ASSERT_NE(g, nullptr) << "no golden for this case; actual:\n" << line;
  EXPECT_EQ(ch, g->colors_fnv) << "colors changed; actual:\n" << line;
  EXPECT_EQ(r.rounds, g->rounds) << "rounds changed; actual:\n" << line;
  if constexpr (kCountersEnabled) {
    EXPECT_EQ(kh, g->counters_fnv) << "counters changed; actual:\n" << line;
  }
}

const char* balance_tag(BalancePolicy b) {
  switch (b) {
    case BalancePolicy::kB1:
      return "B1";
    case BalancePolicy::kB2:
      return "B2";
    case BalancePolicy::kNone:
    default:
      return "none";
  }
}

constexpr BalancePolicy kBalances[] = {BalancePolicy::kNone,
                                       BalancePolicy::kB1,
                                       BalancePolicy::kB2};

/// Share of adjacency lists that are longer than 16 and not a multiple
/// of 16: the shape the goldens exist to cover.
template <class Lists>
double odd_long_share(std::size_t count, Lists&& list_size) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = list_size(i);
    if (s > 16 && s % 16 != 0) ++hits;
  }
  return count == 0 ? 0.0 : static_cast<double>(hits) / count;
}

struct BgpcInput {
  const char* tag;
  BipartiteGraph g;
};

std::vector<BgpcInput> bgpc_inputs() {
  std::vector<BgpcInput> in;
  in.push_back({"rand", build_bipartite(gen_random_bipartite(
                            220, 900, 220 * 29, 0x601D))});
  in.push_back({"cliq", build_bipartite(gen_clique_union(
                            600, 150, 6, 40, 1.6, 0x601E))});
  return in;
}

struct D2gcInput {
  const char* tag;
  Graph g;
};

std::vector<D2gcInput> d2gc_inputs() {
  std::vector<D2gcInput> in;
  in.push_back({"mesh", build_graph(gen_mesh2d(26, 23, 2))});
  in.push_back({"geom", build_graph(gen_random_geometric(650, 0.11, 0x601F))});
  return in;
}

TEST(Goldens, InputsExerciseVectorBlocksAndTails) {
  for (const BgpcInput& in : bgpc_inputs()) {
    const double share = odd_long_share(
        static_cast<std::size_t>(in.g.num_nets()), [&](std::size_t v) {
          return in.g.vtxs(static_cast<vid_t>(v)).size();
        });
    EXPECT_GT(share, 0.5) << in.tag;
  }
  for (const D2gcInput& in : d2gc_inputs()) {
    const double share = odd_long_share(
        static_cast<std::size_t>(in.g.num_vertices()), [&](std::size_t v) {
          return in.g.neighbors(static_cast<vid_t>(v)).size();
        });
    EXPECT_GT(share, 0.5) << in.tag;
  }
}

TEST(Goldens, BgpcPresetsSingleThread) {
  for (const BgpcInput& in : bgpc_inputs()) {
    for (const std::string& preset : bgpc_preset_names()) {
      for (const BalancePolicy b : kBalances) {
        ColoringOptions opt = bgpc_preset(preset);
        opt.balance = b;
        opt.num_threads = 1;
        opt.forbidden_set = ForbiddenSetKind::kStamped;
        const ColoringResult r = color_bgpc(in.g, opt);
        ASSERT_TRUE(is_valid_bgpc(in.g, r.colors));
        expect_golden(std::string("bgpc/") + in.tag + "/" + preset + "/" +
                          balance_tag(b),
                      r);
      }
    }
    expect_golden(std::string("bgpc/") + in.tag + "/sequential",
                  color_bgpc_sequential(in.g));
  }
}

TEST(Goldens, D2gcPresetsSingleThread) {
  for (const D2gcInput& in : d2gc_inputs()) {
    for (const std::string& preset : d2gc_preset_names()) {
      for (const BalancePolicy b : kBalances) {
        ColoringOptions opt = d2gc_preset(preset);
        opt.balance = b;
        opt.num_threads = 1;
        opt.forbidden_set = ForbiddenSetKind::kStamped;
        const ColoringResult r = color_d2gc(in.g, opt);
        ASSERT_TRUE(is_valid_d2gc(in.g, r.colors));
        expect_golden(std::string("d2gc/") + in.tag + "/" + preset + "/" +
                          balance_tag(b),
                      r);
      }
    }
    expect_golden(std::string("d2gc/") + in.tag + "/sequential",
                  color_d2gc_sequential(in.g));
  }
}

}  // namespace
}  // namespace gcol
