// Equivalence of the two bodies of the distance-2 color-access seam
// (src/core/src/kernels_common.hpp): the AVX-512 gather/scatter body
// must leave the same forbidden set, give the same clash verdict and
// report the same visited count as the scalar body, on lists of every
// length from 0 to 70 (empty, shorter than one 16-lane block, whole
// blocks, blocks plus a tail) holding uncolored neighbors, the vertex's
// own id, repeated colors, and colors at or beyond the set's capacity.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "kernels_common.hpp"

namespace gcol::detail {
namespace {

constexpr vid_t kVertices = 160;
constexpr std::size_t kCapacity = 24;  // colors 24..35 must grow the set
constexpr color_t kMaxColor = 36;

[[maybe_unused]] constexpr const char* kNoVectorBody =
    "the AVX-512 body is not compiled into this build (no __AVX512F__, or "
    "a GCOL_AUDIT / GCOL_MC / TSan build); only the scalar body exists";

struct Instance {
  std::vector<color_t> colors;
  std::vector<vid_t> ids;
  vid_t self = 0;
};

[[maybe_unused]] Instance random_instance(std::mt19937& rng,
                                         std::size_t len) {
  Instance in;
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<color_t> col(0, kMaxColor - 1);
  std::uniform_int_distribution<color_t> few(0, 3);
  std::uniform_int_distribution<vid_t> vid(0, kVertices - 1);
  in.colors.resize(static_cast<std::size_t>(kVertices));
  for (color_t& c : in.colors) {
    const int p = pct(rng);
    c = p < 20 ? kNoColor : p < 50 ? few(rng) : col(rng);
  }
  in.self = vid(rng);
  in.ids.resize(len);
  for (vid_t& u : in.ids) u = pct(rng) < 10 ? in.self : vid(rng);
  return in;
}

/// A set holding stale entries from an earlier epoch, so a body that
/// wrote the wrong stamp (or read one back) would show.
[[maybe_unused]] MarkerSet primed_set(std::mt19937& rng) {
  MarkerSet f(kCapacity);
  std::uniform_int_distribution<int> key(0, static_cast<int>(kCapacity) - 1);
  for (int i = 0; i < 8; ++i) f.insert(key(rng));
  f.clear();
  return f;
}

TEST(ColorSeam, ForbidBodiesLeaveTheSameSet) {
#if !GCOL_VECTOR_GATHER
  GTEST_SKIP() << kNoVectorBody;
#else
  std::mt19937 rng(0x5EA4);
  int grew = 0;
  for (int trial = 0; trial < 40; ++trial) {
    for (std::size_t len = 0; len <= 70; ++len) {
      Instance in = random_instance(rng, len);
      MarkerSet scalar = primed_set(rng);
      MarkerSet vector = scalar;
      forbid_colors_scalar(in.colors.data(), in.ids.data(), len, in.self,
                           scalar);
      forbid_colors_vector(in.colors.data(), in.ids.data(), len, in.self,
                           vector);
      for (color_t k = 0; k < kMaxColor; ++k)
        ASSERT_EQ(scalar.contains(k), vector.contains(k))
            << "color " << k << ", list length " << len;
      ASSERT_EQ(scalar.capacity(), vector.capacity());
      grew += scalar.capacity() > kCapacity ? 1 : 0;
    }
  }
  EXPECT_GT(grew, 0) << "no list exercised the grow-the-set fallback";
#endif
}

TEST(ColorSeam, ClashBodiesAgreeOnVerdictAndCount) {
#if !GCOL_VECTOR_GATHER
  GTEST_SKIP() << kNoVectorBody;
#else
  std::mt19937 rng(0xC1A5);
  int clashes = 0;
  int misses = 0;
  for (int trial = 0; trial < 40; ++trial) {
    for (std::size_t len = 0; len <= 70; ++len) {
      Instance in = random_instance(rng, len);
      // A low color, so both verdicts occur at every length.
      const color_t cw = static_cast<color_t>(trial % 4);
      const ClashScan s = first_lower_clash_scalar(
          in.colors.data(), in.ids.data(), len, in.self, cw);
      const ClashScan v = first_lower_clash_vector(
          in.colors.data(), in.ids.data(), len, in.self, cw);
      ASSERT_EQ(s.clash, v.clash) << "list length " << len;
      ASSERT_EQ(s.visited, v.visited) << "list length " << len;
      (s.clash ? clashes : misses) += 1;
    }
  }
  EXPECT_GT(clashes, 0);
  EXPECT_GT(misses, 0);
#endif
}

}  // namespace
}  // namespace gcol::detail
