// Deterministic work counters for the coloring kernels.
//
// Wall-clock thread scaling depends on how many cores the host has.
// These counters capture the machine-independent work profile of every
// kernel (edges traversed, color probes, conflicts, recolored vertices)
// and are what the paper driver records, next to wall time, to compare
// with the paper's relative results on any host. Compiled out when
// GCOL_COUNTERS is not defined.
#pragma once

#include <algorithm>
#include <cstdint>

#include "greedcolor/util/types.hpp"

namespace gcol {

struct KernelCounters {
  /// Adjacency entries visited (inner-loop iterations over vtxs/nets).
  std::uint64_t edges_visited = 0;
  /// First-fit / reverse-first-fit probes of the forbidden set.
  std::uint64_t color_probes = 0;
  /// Conflicts detected by a conflict-removal kernel.
  std::uint64_t conflicts = 0;
  /// Vertices (re)assigned a color by a coloring kernel.
  std::uint64_t colored = 0;
  /// Largest color assigned by a coloring kernel, kNoColor when none.
  color_t max_color = kNoColor;

  KernelCounters& operator+=(const KernelCounters& o) {
    edges_visited += o.edges_visited;
    color_probes += o.color_probes;
    conflicts += o.conflicts;
    colored += o.colored;
    max_color = std::max(max_color, o.max_color);
    return *this;
  }

  [[nodiscard]] std::uint64_t total_work() const {
    return edges_visited + color_probes;
  }
};

#if defined(GCOL_COUNTERS)
inline constexpr bool kCountersEnabled = true;
#define GCOL_COUNT(expr) \
  do {                   \
    expr;                \
  } while (0)
#else
inline constexpr bool kCountersEnabled = false;
#define GCOL_COUNT(expr) \
  do {                   \
  } while (0)
#endif

}  // namespace gcol
