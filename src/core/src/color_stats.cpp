#include "greedcolor/core/color_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "greedcolor/core/result.hpp"

namespace gcol {

color_t count_colors(const std::vector<color_t>& colors) {
  color_t max_color = -1;
  for (const color_t c : colors) max_color = std::max(max_color, c);
  return max_color + 1;
}

std::vector<vid_t> ColorClassStats::sorted_cardinalities() const {
  std::vector<vid_t> sorted = cardinality;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return sorted;
}

std::uint64_t ColorClassStats::span(int num_threads) const {
  if (num_threads < 1)
    throw std::invalid_argument("ColorClassStats::span: threads must be >= 1");
  const auto p = static_cast<std::uint64_t>(num_threads);
  std::uint64_t rounds = 0;
  for (const vid_t card : cardinality)
    rounds += (static_cast<std::uint64_t>(card) + p - 1) / p;
  return rounds;
}

double ColorClassStats::efficiency(int num_threads) const {
  const std::uint64_t rounds = span(num_threads);
  if (rounds == 0) return 0.0;
  std::uint64_t items = 0;
  for (const vid_t card : cardinality)
    items += static_cast<std::uint64_t>(card);
  return static_cast<double>(items) /
         (static_cast<double>(num_threads) * static_cast<double>(rounds));
}

ColorClassStats color_class_stats(const std::vector<color_t>& colors) {
  ColorClassStats s;
  const color_t k = count_colors(colors);
  s.cardinality.assign(static_cast<std::size_t>(std::max<color_t>(k, 0)), 0);
  vid_t colored = 0;
  for (const color_t c : colors) {
    if (c < 0) continue;
    ++s.cardinality[static_cast<std::size_t>(c)];
    ++colored;
  }
  // Drop empty classes (can appear when a post-pass eliminated a color).
  std::erase(s.cardinality, 0);
  s.num_colors = static_cast<color_t>(s.cardinality.size());
  if (s.num_colors == 0) return s;

  double sum = 0.0, sumsq = 0.0;
  s.min = s.cardinality.front();
  s.max = s.cardinality.front();
  for (const vid_t card : s.cardinality) {
    sum += card;
    sumsq += static_cast<double>(card) * card;
    s.min = std::min(s.min, card);
    s.max = std::max(s.max, card);
    if (card < 2) ++s.singleton_sets;
  }
  s.mean = sum / s.num_colors;
  s.stddev = std::sqrt(
      std::max(0.0, sumsq / s.num_colors - s.mean * s.mean));
  return s;
}

ColorSchedule ColorSchedule::build(const std::vector<color_t>& colors) {
  color_t num_classes = 0;
  for (const color_t c : colors) {
    if (c < kNoColor)
      throw std::invalid_argument("ColorSchedule::build: color below kNoColor");
    num_classes = std::max(num_classes, static_cast<color_t>(c + 1));
  }
  // Counting sort with the uncolored items as class num_classes.
  const auto slot = [num_classes](color_t c) {
    return static_cast<std::size_t>(c == kNoColor ? num_classes : c);
  };
  ColorSchedule s;
  s.class_ptr_.assign(static_cast<std::size_t>(num_classes) + 2, 0);
  for (const color_t c : colors) ++s.class_ptr_[slot(c) + 1];
  for (std::size_t i = 1; i < s.class_ptr_.size(); ++i)
    s.class_ptr_[i] += s.class_ptr_[i - 1];
  s.members_.resize(colors.size());
  std::vector<eid_t> cursor(s.class_ptr_.begin(), s.class_ptr_.end() - 1);
  for (vid_t v = 0; v < static_cast<vid_t>(colors.size()); ++v)
    s.members_[static_cast<std::size_t>(
        cursor[slot(colors[static_cast<std::size_t>(v)])]++)] = v;
  return s;
}

}  // namespace gcol
