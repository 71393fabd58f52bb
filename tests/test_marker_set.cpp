#include "greedcolor/util/marker_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "kernels_common.hpp"

namespace gcol {
namespace {

TEST(MarkerSet, StartsEmpty) {
  MarkerSet s(16);
  for (int k = 0; k < 16; ++k) EXPECT_FALSE(s.contains(k));
}

TEST(MarkerSet, InsertThenContains) {
  MarkerSet s(8);
  s.insert(3);
  s.insert(7);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(4));
}

TEST(MarkerSet, ClearIsConstantTimeEmpty) {
  MarkerSet s(8);
  for (int k = 0; k < 8; ++k) s.insert(k);
  s.clear();
  for (int k = 0; k < 8; ++k) EXPECT_FALSE(s.contains(k));
}

TEST(MarkerSet, ReusableAcrossManyRounds) {
  MarkerSet s(4);
  for (int round = 0; round < 1000; ++round) {
    s.clear();
    s.insert(round % 4);
    for (int k = 0; k < 4; ++k)
      EXPECT_EQ(s.contains(k), k == round % 4) << "round " << round;
  }
}

TEST(MarkerSet, AutoGrowsOnInsert) {
  MarkerSet s(4);
  s.insert(100);  // beyond initial capacity
  EXPECT_TRUE(s.contains(100));
  EXPECT_GE(s.capacity(), 101u);
  EXPECT_FALSE(s.contains(50));
}

TEST(MarkerSet, ContainsBeyondCapacityIsFalse) {
  MarkerSet s(4);
  EXPECT_FALSE(s.contains(1000000));
}

TEST(MarkerSet, GrowPreservesMembership) {
  MarkerSet s(4);
  s.insert(2);
  s.ensure_capacity(1024);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(512));
}

TEST(MarkerSet, DefaultConstructedGrowsFromZero) {
  MarkerSet s;
  EXPECT_EQ(s.capacity(), 0u);
  s.insert(0);
  EXPECT_TRUE(s.contains(0));
}

TEST(MarkerSet, StampWraparoundEmptiesTheSet) {
  MarkerSet s(64);
  s.insert(5);  // marked under the initial stamp, which the wrap reuses
  s.debug_set_stamp(UINT32_MAX);
  s.insert(10);
  s.insert(40);
  s.clear();  // the stamp wraps: every slot is reset
  for (int k = 0; k < 64; ++k)
    EXPECT_FALSE(s.contains(k)) << "stale key " << k << " survived the wrap";

  s.insert(7);
  EXPECT_TRUE(s.contains(7));
  // A walk long enough for the vector body of the seam, where compiled.
  std::vector<color_t> colors(40);
  for (std::size_t i = 0; i < colors.size(); ++i)
    colors[i] = i % 5 == 0 ? kNoColor : static_cast<color_t>(i * 7 % 50);
  std::vector<vid_t> ids(colors.size());
  std::iota(ids.begin(), ids.end(), vid_t{0});
  const vid_t self = 3;
  detail::forbid_colors(colors.data(), ids, self, s);
  std::set<color_t> expected = {7};
  for (const vid_t u : ids)
    if (u != self && colors[static_cast<std::size_t>(u)] != kNoColor)
      expected.insert(colors[static_cast<std::size_t>(u)]);
  for (int k = 0; k < 64; ++k)
    EXPECT_EQ(s.contains(k), expected.count(k) == 1) << "key " << k;
}

TEST(MarkerSetGrowth, GeometricNotPerKey) {
  MarkerSet s(4);
  s.insert(100);
  const std::size_t after_first = s.capacity();
  EXPECT_GE(after_first, 101u);
  // Growth at the boundary doubles (geometric), instead of the old
  // grow-to-key+64 policy that resized on every 65th consecutive key.
  s.insert(static_cast<std::int64_t>(after_first));
  const std::size_t after_second = s.capacity();
  EXPECT_GE(after_second, after_first * 2);
  // Everything inside the doubled capacity inserts without resizing.
  s.insert(static_cast<std::int64_t>(after_second - 1));
  EXPECT_EQ(s.capacity(), after_second);
}

TEST(ThreadWorkspace, PrepareReservesBothStructures) {
  ThreadWorkspace ws;
  ws.prepare(128, 64);
  EXPECT_GE(ws.forbidden.capacity(), 128u);
  EXPECT_GE(ws.local_queue.capacity(), 64u);
  // prepare() must not shrink.
  ws.prepare(16, 8);
  EXPECT_GE(ws.forbidden.capacity(), 128u);
  EXPECT_GE(ws.local_queue.capacity(), 64u);
}

}  // namespace
}  // namespace gcol
