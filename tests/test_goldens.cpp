// Behaviour lock for the speculative engines: single-thread colorings
// and work counters pinned per (graph, preset, balance) case. The
// sequential paths around them (recoloring, repair, DSATUR and the
// watchdog's cleanup) are pinned the same way.
//
// At num_threads = 1 every preset is deterministic, so a refactor or a
// kernel optimization that keeps the algorithm must reproduce each case
// exactly: the FNV-1a hash of the colors, the round count, and the
// per-round edges_visited / color_probes of both phases (hashed into
// one word). The inputs are small seeded generator graphs whose
// adjacency lists are mostly longer than 16 entries and not multiples
// of 16, so the distance-2 walks take both the vector blocks and the
// scalar tails of the color-access seam (kernels_common.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/dsatur.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/util/prng.hpp"

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
    // The skewed inputs (large nets), the watchdog's cleanup after one
    // round, and the sequential passes: recoloring, repair and DSATUR
    // (rounds 0 and a hash of result words for the rows that are not an
    // engine run). Generated before those passes moved onto the
    // engine's first-fit fill.
    {"bgpc/skew/V-V/none", 0x946ac66714ae97aaULL, 1, 0xe6e4570e6accc0e7ULL},
    {"bgpc/skew/V-V/B1", 0x22799b70896bf3d8ULL, 1, 0xfdd7c7e72d0cdadaULL},
    {"bgpc/skew/V-V/B2", 0x75c7bd21dea8c7bcULL, 1, 0xd75b05fa50719a01ULL},
    {"bgpc/skew/V-V-64/none", 0x946ac66714ae97aaULL, 1, 0xe6e4570e6accc0e7ULL},
    {"bgpc/skew/V-V-64/B1", 0x22799b70896bf3d8ULL, 1, 0xfdd7c7e72d0cdadaULL},
    {"bgpc/skew/V-V-64/B2", 0x75c7bd21dea8c7bcULL, 1, 0xd75b05fa50719a01ULL},
    {"bgpc/skew/V-V-64D/none", 0x946ac66714ae97aaULL, 1, 0xe6e4570e6accc0e7ULL},
    {"bgpc/skew/V-V-64D/B1", 0x22799b70896bf3d8ULL, 1, 0xfdd7c7e72d0cdadaULL},
    {"bgpc/skew/V-V-64D/B2", 0x75c7bd21dea8c7bcULL, 1, 0xd75b05fa50719a01ULL},
    {"bgpc/skew/V-Ninf/none", 0x946ac66714ae97aaULL, 1, 0x3a0896ed8b7f341bULL},
    {"bgpc/skew/V-Ninf/B1", 0x22799b70896bf3d8ULL, 1, 0x8699e1f5ae3a8692ULL},
    {"bgpc/skew/V-Ninf/B2", 0x75c7bd21dea8c7bcULL, 1, 0xec08d0dcf9b96ce5ULL},
    {"bgpc/skew/V-N1/none", 0x946ac66714ae97aaULL, 1, 0x3a0896ed8b7f341bULL},
    {"bgpc/skew/V-N1/B1", 0x22799b70896bf3d8ULL, 1, 0x8699e1f5ae3a8692ULL},
    {"bgpc/skew/V-N1/B2", 0x75c7bd21dea8c7bcULL, 1, 0xec08d0dcf9b96ce5ULL},
    {"bgpc/skew/V-N2/none", 0x946ac66714ae97aaULL, 1, 0x3a0896ed8b7f341bULL},
    {"bgpc/skew/V-N2/B1", 0x22799b70896bf3d8ULL, 1, 0x8699e1f5ae3a8692ULL},
    {"bgpc/skew/V-N2/B2", 0x75c7bd21dea8c7bcULL, 1, 0xec08d0dcf9b96ce5ULL},
    {"bgpc/skew/N1-N2/none", 0x782b196877652e56ULL, 2, 0x6434aac37e6d1e05ULL},
    {"bgpc/skew/N1-N2/B1", 0x4ea1ab1660b61977ULL, 2, 0xe6fe4d9cfbde8039ULL},
    {"bgpc/skew/N1-N2/B2", 0x694ac6be82883135ULL, 2, 0x2db2966ca4d512d0ULL},
    {"bgpc/skew/N2-N2/none", 0x7cbe0b258a77b193ULL, 3, 0xe1efc96490d7ae3aULL},
    {"bgpc/skew/N2-N2/B1", 0x6d1ddda07ffef5c0ULL, 3, 0x0297cfa477724905ULL},
    {"bgpc/skew/N2-N2/B2", 0xb282f6e35098fd98ULL, 3, 0x51b4c14ead5eedf4ULL},
    {"bgpc/skew/sequential", 0x946ac66714ae97aaULL, 1, 0x79cc03cf83c1a1afULL},
    {"d2gc/hub/V-V-64D/none", 0x0f60cd88e32dfa9eULL, 1, 0xb821779edbba7826ULL},
    {"d2gc/hub/V-V-64D/B1", 0xbd88418a3c662c96ULL, 1, 0x3e8c400dc39aa98aULL},
    {"d2gc/hub/V-V-64D/B2", 0x3cb59bd0baebe5c3ULL, 1, 0x2b54939b535aa324ULL},
    {"d2gc/hub/V-N1/none", 0x0f60cd88e32dfa9eULL, 1, 0x0864ae251bec6107ULL},
    {"d2gc/hub/V-N1/B1", 0xbd88418a3c662c96ULL, 1, 0xd0ee30674e754cabULL},
    {"d2gc/hub/V-N1/B2", 0x3cb59bd0baebe5c3ULL, 1, 0x99eb6cf48ef44fb5ULL},
    {"d2gc/hub/V-N2/none", 0x0f60cd88e32dfa9eULL, 1, 0x0864ae251bec6107ULL},
    {"d2gc/hub/V-N2/B1", 0xbd88418a3c662c96ULL, 1, 0xd0ee30674e754cabULL},
    {"d2gc/hub/V-N2/B2", 0x3cb59bd0baebe5c3ULL, 1, 0x99eb6cf48ef44fb5ULL},
    {"d2gc/hub/N1-N2/none", 0xd123fa6913f95f4fULL, 2, 0xffd3db6011c03071ULL},
    {"d2gc/hub/N1-N2/B1", 0x29a3c3e1ee619eb4ULL, 2, 0x8eecc9ad8d51b01cULL},
    {"d2gc/hub/N1-N2/B2", 0x2bd08b124bb83c0bULL, 2, 0xa05c68612e53943bULL},
    {"d2gc/hub/sequential", 0x0f60cd88e32dfa9eULL, 1, 0x71a1c172487aca5cULL},
    {"bgpc/rand/N1-N2/capped", 0xe5a66a3751dfb310ULL, 1, 0x4c7f9986045b0f2dULL},
    {"bgpc/cliq/N1-N2/capped", 0xdce8021979af92a1ULL, 1, 0x464d06cd3bf4819bULL},
    {"bgpc/skew/N1-N2/capped", 0x782b196877652e56ULL, 1, 0xfe7920c5ac6b773bULL},
    {"d2gc/mesh/N1-N2/B1/capped", 0x0e3e9dc953a9e538ULL, 1, 0x030fb1581c1b910aULL},
    {"d2gc/geom/N1-N2/B1/capped", 0xb49871d443e7a3deULL, 1, 0xc869844bb824eb4eULL},
    {"d2gc/hub/N1-N2/B1/capped", 0x7f92ff75a944a2b4ULL, 1, 0x77a4da9939e758e3ULL},
    {"recolor/bgpc/rand/reverse", 0xc32fc212f345ec7aULL, 0, 0x3506a3c5a4e2c039ULL},
    {"recolor/bgpc/rand/balanced", 0xdc7999fef02ff9a4ULL, 0, 0xcc93d747ad404f60ULL},
    {"recolor/bgpc/cliq/reverse", 0xd50305ab0a465a83ULL, 0, 0xd321ed38853b08faULL},
    {"recolor/bgpc/cliq/balanced", 0x18733dc3274dd914ULL, 0, 0x39e861e0e5b60814ULL},
    {"recolor/bgpc/skew/reverse", 0xa7a6fa84dd6f8ed4ULL, 0, 0x2afc94c419f615bfULL},
    {"recolor/bgpc/skew/balanced", 0x72cb73a41f3aa83aULL, 0, 0x52212384cd6b0ed8ULL},
    {"recolor/d2gc/mesh/reverse", 0x9811fec8d47592a9ULL, 0, 0x714fda022399e2bcULL},
    {"recolor/d2gc/geom/reverse", 0xc13ca727c72eddf1ULL, 0, 0xb91b87a1792597b5ULL},
    {"recolor/d2gc/hub/reverse", 0xc64daf5e210cbecdULL, 0, 0xbdec9fadf35c632fULL},
    {"repair/bgpc/rand", 0xbd748a804435bdbdULL, 0, 0x7d45957d89139ebeULL},
    {"repair/bgpc/cliq", 0x0c3904c4ecd85509ULL, 0, 0x355e37a10de594a6ULL},
    {"repair/bgpc/skew", 0x473f5bf8af8a2bdcULL, 0, 0xb94809747aeafccbULL},
    {"repair/d2gc/mesh", 0xac9ca17600f84800ULL, 0, 0x5d9aaeec5a1c67c8ULL},
    {"repair/d2gc/geom", 0x7b49fd21e119893bULL, 0, 0x232aa19f9f8b032aULL},
    {"repair/d2gc/hub", 0x43ffd358d33d4b79ULL, 0, 0x40617d808b5ae4dfULL},
    {"dsatur/bgpc/rand", 0x2634019d0481bad8ULL, 1, 0xe9b5c6cbca1ef1dfULL},
    {"dsatur/bgpc/cliq", 0x5ac4df7c036bf3e2ULL, 1, 0xd07e45af33dd3ee1ULL},
    {"dsatur/bgpc/skew", 0x9cb2b45cf70d2f3cULL, 1, 0x501ff3e6e4000385ULL},
    {"dsatur/d1gc/mesh", 0xad18d592d7069ccaULL, 0, 0x81a3697174a540acULL},
    {"dsatur/d1gc/geom", 0xa56555f70f77bce4ULL, 0, 0xd669f6d4eced7017ULL},
    {"dsatur/d1gc/hub", 0x38bb1cf44af5f064ULL, 0, 0x6ad26a20123ba583ULL},
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

/// Compare one case with its row. `check_words` is false when the
/// words are work counters that this build does not count.
void expect_row(const std::string& name, const std::vector<color_t>& colors,
                int rounds, std::uint64_t words_hash, bool check_words) {
  const std::uint64_t ch = colors_hash(colors);
  char line[160];
  std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxULL, %d, 0x%016llxULL},",
                name.c_str(), static_cast<unsigned long long>(ch), rounds,
                static_cast<unsigned long long>(words_hash));
  const Golden* g = find_golden(name);
  ASSERT_NE(g, nullptr) << "no golden for this case; actual:\n" << line;
  EXPECT_EQ(ch, g->colors_fnv) << "colors changed; actual:\n" << line;
  EXPECT_EQ(rounds, g->rounds) << "rounds changed; actual:\n" << line;
  if (check_words) {
    EXPECT_EQ(words_hash, g->counters_fnv)
        << "counters changed; actual:\n" << line;
  }
}

void expect_golden(const std::string& name, const ColoringResult& r) {
  expect_row(name, r.colors, r.rounds, counters_hash(r), kCountersEnabled);
}

/// A sequential pass's row: its colors plus a few result words (a color
/// count, repair statistics) in the counters' place, and rounds 0.
void expect_pass_golden(const std::string& name,
                        const std::vector<color_t>& colors,
                        std::initializer_list<std::uint64_t> words) {
  Fnv f;
  for (const std::uint64_t w : words) f.add(w);
  expect_row(name, colors, 0, f.value(), true);
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

// --- Skewed inputs: large nets --------------------------------------------
//
// No net of the inputs above has 64 or more members, so Alg. 4 never
// reads a large net's color summary on them. These two have such nets.

BipartiteGraph skewed_bgpc() {
  PowerLawBipartiteParams p;
  p.rows = 160;
  p.cols = 700;
  p.min_deg = 6;
  p.max_deg = 260;
  p.alpha = 1.5;
  p.col_skew = 0.5;
  p.seed = 0x6020;
  return build_bipartite(gen_powerlaw_bipartite(p));
}

Graph skewed_d2gc() {
  return build_graph(gen_preferential_attachment(700, 4, 0x6021));
}

TEST(Goldens, SkewedInputsHaveLargeNets) {
  const BipartiteGraph b = skewed_bgpc();
  vid_t large = 0;
  for (vid_t v = 0; v < b.num_nets(); ++v)
    if (b.net_degree(v) >= 64) ++large;
  EXPECT_GT(large, 0);
  const Graph g = skewed_d2gc();
  large = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) + 1 >= 64) ++large;  // N[v]: its center included
  EXPECT_GT(large, 0);
}

TEST(Goldens, SkewedPresetsSingleThread) {
  const BipartiteGraph b = skewed_bgpc();
  for (const std::string& preset : bgpc_preset_names()) {
    for (const BalancePolicy bal : kBalances) {
      ColoringOptions opt = bgpc_preset(preset);
      opt.balance = bal;
      opt.num_threads = 1;
      const ColoringResult r = color_bgpc(b, opt);
      ASSERT_TRUE(is_valid_bgpc(b, r.colors));
      expect_golden("bgpc/skew/" + preset + "/" + balance_tag(bal), r);
    }
  }
  expect_golden("bgpc/skew/sequential", color_bgpc_sequential(b));
  const Graph g = skewed_d2gc();
  for (const std::string& preset : d2gc_preset_names()) {
    for (const BalancePolicy bal : kBalances) {
      ColoringOptions opt = d2gc_preset(preset);
      opt.balance = bal;
      opt.num_threads = 1;
      const ColoringResult r = color_d2gc(g, opt);
      ASSERT_TRUE(is_valid_d2gc(g, r.colors));
      expect_golden("d2gc/hub/" + preset + "/" + balance_tag(bal), r);
    }
  }
  expect_golden("d2gc/hub/sequential", color_d2gc_sequential(g));
}

std::vector<BgpcInput> all_bgpc_inputs() {
  std::vector<BgpcInput> in = bgpc_inputs();
  in.push_back({"skew", skewed_bgpc()});
  return in;
}

std::vector<D2gcInput> all_d2gc_inputs() {
  std::vector<D2gcInput> in = d2gc_inputs();
  in.push_back({"hub", skewed_d2gc()});
  return in;
}

ColoringResult single_thread(const BipartiteGraph& g, const char* preset) {
  ColoringOptions opt = bgpc_preset(preset);
  opt.num_threads = 1;
  return color_bgpc(g, opt);
}

ColoringResult single_thread(const Graph& g, const char* preset) {
  ColoringOptions opt = d2gc_preset(preset);
  opt.num_threads = 1;
  return color_d2gc(g, opt);
}

// --- Iterated-greedy recoloring ---------------------------------------------

TEST(Goldens, RecolorFromN1N2SingleThread) {
  for (const BgpcInput& in : all_bgpc_inputs()) {
    const std::vector<color_t> start = single_thread(in.g, "N1-N2").colors;
    std::vector<color_t> colors = start;
    color_t k = recolor_bgpc(in.g, colors);
    ASSERT_TRUE(is_valid_bgpc(in.g, colors));
    expect_pass_golden(std::string("recolor/bgpc/") + in.tag + "/reverse",
                       colors, {static_cast<std::uint64_t>(k)});
    colors = start;
    k = balanced_recolor_bgpc(in.g, colors);
    ASSERT_TRUE(is_valid_bgpc(in.g, colors));
    expect_pass_golden(std::string("recolor/bgpc/") + in.tag + "/balanced",
                       colors, {static_cast<std::uint64_t>(k)});
  }
  for (const D2gcInput& in : all_d2gc_inputs()) {
    std::vector<color_t> colors = single_thread(in.g, "N1-N2").colors;
    const color_t k = recolor_d2gc(in.g, colors);
    ASSERT_TRUE(is_valid_d2gc(in.g, colors));
    expect_pass_golden(std::string("recolor/d2gc/") + in.tag + "/reverse",
                       colors, {static_cast<std::uint64_t>(k)});
  }
}

// --- Verify-and-repair --------------------------------------------------------

/// Seeded damage to a valid coloring: about one entry in eight becomes
/// garbage below 0 or at or above n, a hole, or a copy of the color of
/// `peer(i, r)`, a vertex that shares a net with i (a clash).
template <class Peer>
void damage(std::vector<color_t>& colors, std::uint64_t seed, Peer&& peer) {
  const auto n = static_cast<color_t>(colors.size());
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < colors.size(); ++i) {
    const std::uint64_t r = rng.next();
    const auto pick = static_cast<color_t>((r >> 8) % 1000);
    switch (r % 16) {
      case 0:
        colors[i] = -2 - pick;
        break;
      case 1:
        colors[i] = n + pick;
        break;
      case 2:
        colors[i] = kNoColor;
        break;
      case 3:
      case 4:
        colors[i] = colors[static_cast<std::size_t>(
            peer(static_cast<vid_t>(i), r >> 20))];
        break;
      default:
        break;
    }
  }
}

TEST(Goldens, RepairDamagedVVSingleThread) {
  for (const BgpcInput& in : all_bgpc_inputs()) {
    std::vector<color_t> colors = single_thread(in.g, "V-V").colors;
    damage(colors, 0x6023, [&](vid_t w, std::uint64_t r) {
      const auto nets = in.g.nets(w);
      if (nets.empty()) return w;
      const auto vs = in.g.vtxs(nets[r % nets.size()]);
      return vs[(r >> 16) % vs.size()];
    });
    const RepairStats st = repair_bgpc(in.g, colors);
    ASSERT_TRUE(is_valid_bgpc(in.g, colors));
    EXPECT_GT(st.conflicted, 0) << in.tag;
    expect_pass_golden(std::string("repair/bgpc/") + in.tag, colors,
                       {static_cast<std::uint64_t>(st.sanitized),
                        static_cast<std::uint64_t>(st.conflicted),
                        static_cast<std::uint64_t>(st.repaired)});
  }
  for (const D2gcInput& in : all_d2gc_inputs()) {
    std::vector<color_t> colors = single_thread(in.g, "V-V-64D").colors;
    damage(colors, 0x6024, [&](vid_t w, std::uint64_t r) {
      const auto nb = in.g.neighbors(w);
      return nb.empty() ? w : nb[r % nb.size()];
    });
    const RepairStats st = repair_d2gc(in.g, colors);
    ASSERT_TRUE(is_valid_d2gc(in.g, colors));
    EXPECT_GT(st.conflicted, 0) << in.tag;
    expect_pass_golden(std::string("repair/d2gc/") + in.tag, colors,
                       {static_cast<std::uint64_t>(st.sanitized),
                        static_cast<std::uint64_t>(st.conflicted),
                        static_cast<std::uint64_t>(st.repaired)});
  }
}

// --- DSATUR -------------------------------------------------------------------

TEST(Goldens, Dsatur) {
  for (const BgpcInput& in : all_bgpc_inputs()) {
    const ColoringResult r = color_bgpc_dsatur(in.g);
    ASSERT_TRUE(is_valid_bgpc(in.g, r.colors));
    expect_golden(std::string("dsatur/bgpc/") + in.tag, r);
  }
  // Distance-1 DSATUR counts no work; its row pins the colors only.
  for (const D2gcInput& in : all_d2gc_inputs()) {
    const ColoringResult r = color_d1gc_dsatur(in.g);
    ASSERT_TRUE(is_valid_d1gc(in.g, r.colors));
    expect_pass_golden(std::string("dsatur/d1gc/") + in.tag, r.colors,
                       {static_cast<std::uint64_t>(r.num_colors)});
  }
}

// --- The watchdog's sequential cleanup ----------------------------------------

TEST(Goldens, WatchdogCleanupAfterOneRound) {
  int capped = 0;
  for (const BgpcInput& in : all_bgpc_inputs()) {
    ColoringOptions opt = bgpc_preset("N1-N2");
    opt.num_threads = 1;
    opt.max_rounds = 1;
    const ColoringResult r = color_bgpc(in.g, opt);
    ASSERT_TRUE(is_valid_bgpc(in.g, r.colors));
    capped += r.rounds_capped;
    expect_golden(std::string("bgpc/") + in.tag + "/N1-N2/capped", r);
  }
  for (const D2gcInput& in : all_d2gc_inputs()) {
    ColoringOptions opt = d2gc_preset("N1-N2");
    opt.num_threads = 1;
    opt.max_rounds = 1;
    opt.balance = BalancePolicy::kB1;
    const ColoringResult r = color_d2gc(in.g, opt);
    ASSERT_TRUE(is_valid_d2gc(in.g, r.colors));
    capped += r.rounds_capped;
    expect_golden(std::string("d2gc/") + in.tag + "/N1-N2/B1/capped", r);
  }
  // rand's N1-N2 golden takes 2 rounds, so round 1 leaves a queue.
  EXPECT_GE(capped, 2);
}


}  // namespace
}  // namespace gcol
