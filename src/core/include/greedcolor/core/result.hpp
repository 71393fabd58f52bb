// Result of a (parallel) coloring run, including the per-round phase
// breakdown that Figure 1 and Table I are built from.
#pragma once

#include <cstdint>
#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/util/counters.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

struct IterationStats {
  int round = 0;                 ///< 1-based
  std::size_t queue_size = 0;    ///< |W| entering the round
  std::size_t conflicts = 0;     ///< |W_next| after conflict removal
  double color_seconds = 0.0;    ///< wall time of the coloring phase
  double conflict_seconds = 0.0; ///< wall time of the removal phase
  bool net_based_coloring = false;
  bool net_based_conflict = false;
  KernelCounters color_counters;
  KernelCounters conflict_counters;
};

struct ColoringResult {
  std::vector<color_t> colors;  ///< per-vertex color, all >= 0 on success
  color_t num_colors = 0;       ///< 1 + max assigned color
  int rounds = 0;               ///< speculative rounds executed
  double total_seconds = 0.0;   ///< coloring + conflict-removal wall time
  bool sequential_fallback = false;  ///< a safety valve ran the sequential cleanup
  // Degradation telemetry (the convergence watchdog + robust pipeline).
  bool degraded = false;        ///< any safety valve fired: fallback or repair
  bool rounds_capped = false;   ///< the max_rounds budget was exhausted
  bool deadline_hit = false;    ///< the deadline_seconds watchdog expired
  vid_t faults_injected = 0;    ///< stale colors written by an attached FaultPlan
  vid_t repaired_vertices = 0;  ///< vertices recolored by verify-and-repair
  std::vector<IterationStats> iterations;  ///< one entry per round

  [[nodiscard]] KernelCounters total_color_counters() const {
    KernelCounters c;
    for (const auto& it : iterations) c += it.color_counters;
    return c;
  }

  [[nodiscard]] KernelCounters total_conflict_counters() const {
    KernelCounters c;
    for (const auto& it : iterations) c += it.conflict_counters;
    return c;
  }
};

/// 1 + max color in `colors` (0 when empty or all uncolored).
[[nodiscard]] color_t count_colors(const std::vector<color_t>& colors);

}  // namespace gcol
