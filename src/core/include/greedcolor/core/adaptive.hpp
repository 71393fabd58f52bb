// Adaptive forbidden-set engine: per-phase, per-round choice among the
// stamped, flat-bitmap and two-level-bitmap representations.
//
// Why a *phase* choice and not a single global one: the per-phase
// kernel timings (DESIGN.md §8) show the winning representation is a
// property of the phase's access mix, not of the graph —
//
//   * vertex-based COLOR, early rounds: most neighbors are still
//     uncolored, so the gather loop is load-dominated and the bitmap's
//     pricier insert/dedup overhead buys nothing. Stamped wins.
//   * vertex-based COLOR, later rounds, small color bound: neighbors
//     are colored, the phase is insert-dominated, the forbidden words
//     stay L1-resident and the dedup set suppresses the duplicate
//     distance-2 inserts. Bitmap wins (bone_s N1-N2 round 2: 17 ms vs
//     30 ms stamped).
//   * vertex-based COLOR, later rounds, large color bound: the same
//     phase with hundreds of colors in play keeps stamped ahead — the
//     dedup set narrows each vertex's read window (every neighbor color
//     is read exactly once, early), which both costs extra bookkeeping
//     per edge and lets more racing writes slip through, so the bitmap
//     run pays extra conflict rounds on top of a slower gather
//     (copapers_s N1-N2 round 2: 405 ms + 81 conflicts bitmap vs
//     275 ms + 15 conflicts stamped). The discriminator is the running
//     color bound, not the colored fraction.
//   * net-based COLOR: inserts scale with the net degree but the
//     reverse-first-fit runs only ONCE per net, so the phase is
//     insert-dominated at every L — and the micro L-sweep shows the
//     stamped insert winning at every measured L (crossover "never").
//     Per-round timings agree (bone_s N1-N2 round 1: 7.2 ms stamped vs
//     8.3 ms bitmap; afshell_s d2gc N1-N2: 3.2 ms vs 5.7 ms), so the
//     bitmap band is empty on the measured machine and the threshold
//     defaults to 0. A machine with relatively cheaper wide loads
//     would raise it.
//   * CONFLICT phases never probe a forbidden set (the vertex kernel
//     early-breaks on the first clash, the net kernel only
//     test_and_sets), so the cheapest bookkeeping — stamped, no dedup —
//     always wins.
//
// The engine is deliberately dependency-free (pure decision logic over
// two scalar signals) so it is unit-testable and reusable by the bench
// harnesses, which stamp the thresholds into BENCH_kernels.json.
#pragma once

#include <algorithm>
#include <cstddef>

#include "greedcolor/core/options.hpp"
#include "greedcolor/util/simd.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

/// Thresholds of the adaptive engine, calibrated from the L-sweep in
/// bench/micro_forbidden_set (see the "lsweep"/"thresholds" blocks of
/// BENCH_kernels.json and DESIGN.md §8 for the derivation).
struct AdaptiveFsThresholds {
  /// Net-based coloring uses the flat bitmap while the running color
  /// bound L is at or below this; 0 = never. The net kernels issue
  /// ~net-degree inserts per net but only one reverse-first-fit, so
  /// the phase tracks the insert L-sweep — whose crossover on the
  /// measured machine is "never" (see the "crossovers" block of
  /// BENCH_kernels.json), hence the empty band.
  color_t net_color_bitmap_max_l = 0;

  /// Vertex-based coloring switches from stamped to the flat bitmap
  /// once BOTH at least vertex_bitmap_min_colored_frac of the universe
  /// is colored (the gather loop turns load-dominated →
  /// insert-dominated and the dedup set pays for itself) AND the
  /// running color bound is at or below this (the forbidden words stay
  /// L1-resident; at larger L the dedup's narrowed read window costs
  /// extra conflict rounds and the gather slows down — see the header
  /// comment's copapers_s numbers). Empty (0) where the stamped walk is
  /// vectorized (kVectorGather): the AVX-512 gather/scatter walk beats
  /// the bitmap's one-entry-at-a-time dedup loop on every
  /// micro_forbidden_set kernel row (DESIGN.md §8).
  color_t vertex_bitmap_max_l = kVectorGather ? 0 : 256;
  double vertex_bitmap_min_colored_frac = 0.55;

  /// Vertex-based coloring goes two-level regardless of the colored
  /// fraction once L crosses this: first-fit probe chains now span
  /// multiple 64-word blocks and the summary word skips whole full
  /// blocks per probe, which neither the flat bitmap nor the stamped
  /// array can do.
  color_t vertex_twolevel_min_l = 4096;

  /// Hysteresis margin: a phase switches representation only when its
  /// signal clears the threshold by this relative margin, and never
  /// switches back within a run (both signals are monotone in practice;
  /// the stickiness guards the pathological non-monotone case).
  double switch_margin = 0.05;
};

/// The calibrated thresholds for this build (single source of truth —
/// drivers and benches read the same instance).
[[nodiscard]] inline const AdaptiveFsThresholds& adaptive_fs_thresholds() {
  static const AdaptiveFsThresholds t{};
  return t;
}

/// Per-run decision state. One instance per color_bgpc/color_d2gc call;
/// not thread-safe (the drivers consult it between parallel phases).
///
/// For a non-adaptive requested kind the engine degenerates to a
/// constant, so the drivers can route every mode through it.
class AdaptiveFsEngine {
 public:
  /// `requested` is options.forbidden_set; `structural_bound` is the
  /// round-1 color-bound estimate (max net degree + 1 for BGPC, the
  /// D2GC degree bound for D2GC) used before any color is assigned.
  AdaptiveFsEngine(ForbiddenSetKind requested, color_t structural_bound,
                   const AdaptiveFsThresholds& t = adaptive_fs_thresholds())
      : thresholds_(t),
        requested_(requested),
        l_run_(std::max<color_t>(structural_bound, 1)) {}

  [[nodiscard]] ForbiddenSetKind requested() const { return requested_; }

  [[nodiscard]] bool adaptive() const {
    return requested_ == ForbiddenSetKind::kAdaptive;
  }

  /// Representation for a coloring phase. `net_based` selects the
  /// net-kernel rule; `queue_size`/`universe` give the still-uncolored
  /// fraction for the vertex-kernel rule.
  [[nodiscard]] ForbiddenSetKind color_kind(bool net_based,
                                            std::size_t queue_size,
                                            std::size_t universe) {
    if (!adaptive()) return requested_;
    if (net_based) {
      const ForbiddenSetKind pick = net_kind_for(l_run_);
      net_color_last_ = sticky(net_color_last_, pick);
      return net_color_last_;
    }
    const double colored_frac =
        universe == 0
            ? 1.0
            : 1.0 - static_cast<double>(std::min(queue_size, universe)) /
                        static_cast<double>(universe);
    const bool leaving_stamped =
        vertex_color_last_ == ForbiddenSetKind::kStamped;
    const double margin = leaving_stamped ? 1.0 + thresholds_.switch_margin
                                          : 1.0 - thresholds_.switch_margin;
    const double frac_gate =
        thresholds_.vertex_bitmap_min_colored_frac * margin;
    // The L gates tighten/loosen in the opposite direction of the frac
    // gate: clearing them means L is *below* the cap.
    const double l_margin = leaving_stamped ? 1.0 - thresholds_.switch_margin
                                            : 1.0 + thresholds_.switch_margin;
    ForbiddenSetKind pick = ForbiddenSetKind::kStamped;
    if (colored_frac >= frac_gate &&
        static_cast<double>(l_run_) <=
            static_cast<double>(thresholds_.vertex_bitmap_max_l) * l_margin)
      pick = ForbiddenSetKind::kBitmap;
    else if (static_cast<double>(l_run_) >=
             static_cast<double>(thresholds_.vertex_twolevel_min_l) * margin)
      pick = ForbiddenSetKind::kTwoLevel;
    vertex_color_last_ = sticky(vertex_color_last_, pick);
    return vertex_color_last_;
  }

  /// Representation for a conflict-removal phase. The conflict kernels
  /// never probe a forbidden set — the vertex kernel early-breaks on
  /// the first clash and the net kernel only test_and_sets — so the
  /// cheapest bookkeeping (stamped, no dedup) always wins.
  [[nodiscard]] ForbiddenSetKind conflict_kind(bool net_based) const {
    (void)net_based;
    if (!adaptive()) return requested_;
    return ForbiddenSetKind::kStamped;
  }

  /// Feed back the coloring phase's observed maximum color; tightens
  /// (or raises) the running color bound for the next round's choices.
  void observe_round(color_t max_color_seen) {
    if (max_color_seen >= 0)
      l_run_ = std::max<color_t>(l_run_observed_
                                     ? std::max(l_run_, max_color_seen + 1)
                                     : max_color_seen + 1,
                                 1);
    l_run_observed_ = l_run_observed_ || max_color_seen >= 0;
  }

  /// The running color bound the next choice will use (structural
  /// estimate until the first round reports real colors).
  [[nodiscard]] color_t running_bound() const { return l_run_; }

 private:
  [[nodiscard]] ForbiddenSetKind net_kind_for(color_t l) const {
    const double margin =
        net_color_last_ == ForbiddenSetKind::kStamped
            ? 1.0 - thresholds_.switch_margin
            : 1.0 + thresholds_.switch_margin;
    if (static_cast<double>(l) <=
        static_cast<double>(thresholds_.net_color_bitmap_max_l) * margin)
      return ForbiddenSetKind::kBitmap;
    return ForbiddenSetKind::kStamped;
  }

  /// Once a phase has left kStamped it never returns to it within a
  /// run: the signals that triggered the switch (colored fraction, the
  /// running bound) are monotone, so a flip back could only come from
  /// noise, and flapping costs a cold structure every time.
  [[nodiscard]] static ForbiddenSetKind sticky(ForbiddenSetKind last,
                                               ForbiddenSetKind pick) {
    if (last != ForbiddenSetKind::kStamped &&
        pick == ForbiddenSetKind::kStamped)
      return last;
    return pick;
  }

  const AdaptiveFsThresholds thresholds_;
  ForbiddenSetKind requested_;
  color_t l_run_;
  bool l_run_observed_ = false;
  ForbiddenSetKind vertex_color_last_ = ForbiddenSetKind::kStamped;
  ForbiddenSetKind net_color_last_ = ForbiddenSetKind::kStamped;
};

}  // namespace gcol
