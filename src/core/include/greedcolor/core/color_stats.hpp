// Color-set cardinality statistics (the quantities Table VI and Figure
// 3 report for the balancing heuristics) and the grouping of vertices
// by color that color-set parallel execution runs on.
//
// "Given a valid coloring, each color set, formed by independent
// vertices, can be simultaneously processed in a lock-free manner"
// (paper, §I). ColorSchedule turns a coloring into that execution
// plan: vertices grouped by color, one OpenMP work-sharing loop per
// class, an implicit barrier between classes, zero locks inside a
// class. The iterated-greedy recolor pass reads its class order from
// the same grouping.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "greedcolor/util/types.hpp"

namespace gcol {

struct ColorClassStats {
  color_t num_colors = 0;         ///< number of non-empty color sets
  std::vector<vid_t> cardinality; ///< size of each color set, by color id
  double mean = 0.0;              ///< average cardinality
  double stddev = 0.0;            ///< Table VI's balance metric
  vid_t min = 0;
  vid_t max = 0;
  /// Color sets with fewer than 2 members — the skew symptom the paper's
  /// Section V motivation describes.
  vid_t singleton_sets = 0;

  /// Cardinalities sorted descending (the Figure 3 x-axis).
  [[nodiscard]] std::vector<vid_t> sorted_cardinalities() const;

  /// Rounds of P-wide execution on a color schedule's critical path:
  /// Σ_c ceil(|class c| / P). Throws std::invalid_argument when P < 1.
  [[nodiscard]] std::uint64_t span(int num_threads) const;

  /// Colored items / (P * span): 1.0 = perfectly balanced classes.
  [[nodiscard]] double efficiency(int num_threads) const;
};

/// Compute the per-color cardinalities and dispersion statistics.
/// Uncolored entries (kNoColor) are ignored.
[[nodiscard]] ColorClassStats color_class_stats(
    const std::vector<color_t>& colors);

class ColorSchedule {
 public:
  /// Group items by color, ascending ids within a class; uncolored
  /// items (kNoColor) form one trailing group. Throws
  /// std::invalid_argument on an entry below kNoColor. Memory is
  /// O(items + largest color).
  static ColorSchedule build(const std::vector<color_t>& colors);

  [[nodiscard]] color_t num_classes() const {
    return static_cast<color_t>(class_ptr_.size()) - 2;
  }

  [[nodiscard]] vid_t total_items() const {
    return static_cast<vid_t>(members_.size());
  }

  [[nodiscard]] std::span<const vid_t> class_members(color_t c) const {
    return {members_.data() + class_ptr_[static_cast<std::size_t>(c)],
            members_.data() + class_ptr_[static_cast<std::size_t>(c) + 1]};
  }

  [[nodiscard]] vid_t class_size(color_t c) const {
    return static_cast<vid_t>(class_members(c).size());
  }

  /// The uncolored items, ascending.
  [[nodiscard]] std::span<const vid_t> uncolored() const {
    return class_members(num_classes());
  }

  /// Run fn(item) for every item, one color class at a time, in one
  /// parallel region. Within a class the calls run concurrently
  /// (schedule(dynamic, chunk)); the loop's implicit barrier separates
  /// classes. fn must be safe to call concurrently for items of one
  /// class — which is exactly what a valid coloring guarantees for
  /// neighborhood-local updates. Throws std::invalid_argument when an
  /// item is uncolored.
  template <typename Fn>
  void for_each_parallel(Fn&& fn, int num_threads = 0,
                         int chunk = 16) const {
    if (!uncolored().empty())
      throw std::invalid_argument(
          "ColorSchedule::for_each_parallel: incomplete coloring "
          "(uncolored item)");
#if defined(_OPENMP)
    const int threads =
        num_threads > 0 ? num_threads : omp_get_max_threads();
#else
    const int threads = 1;
    (void)num_threads;
#endif
    const color_t classes = num_classes();
#pragma omp parallel num_threads(threads) default(none) \
    shared(fn) firstprivate(classes, chunk)
    for (color_t c = 0; c < classes; ++c) {
      const auto members = class_members(c);
      const auto size = static_cast<std::int64_t>(members.size());
#pragma omp for schedule(dynamic, chunk)
      for (std::int64_t i = 0; i < size; ++i)
        fn(members[static_cast<std::size_t>(i)]);
    }
  }

 private:
  std::vector<eid_t> class_ptr_;  // num_classes + 2; last group: uncolored
  std::vector<vid_t> members_;    // grouped by color, ascending ids
};

}  // namespace gcol
