// Deterministic fault-injection harness.
//
// A FaultPlan is a seeded description of the failure modes the robust
// pipeline must survive: stale speculative color writes in the parallel
// kernels (a delayed thread publishing a decision computed from an old
// view), artificial straggler stalls that trip the convergence watchdog,
// and truncated / bit-flipped bytes on the ingest path. Every decision
// is a pure function of (seed, fault kind, round, item), so a failing
// scenario replays bit-for-bit from its spec string.
//
// A plan reaches the engine through a FaultInjector, one of the round
// hooks in ColoringOptions::hooks; the happy path attaches none.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "greedcolor/core/round_hook.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

struct FaultPlan {
  std::uint64_t seed = 1;

  // --- parallel kernels (color_bgpc / color_d2gc round loop) ---
  /// Fraction of colored vertices whose color is overwritten with a
  /// conflicting distance-2 neighbor's color after each round's conflict
  /// removal (simulating a delayed thread's stale speculative write).
  double stale_color_rate = 0.0;
  /// Rounds 1..delay_rounds suffer an artificial straggler stall.
  int delay_rounds = 0;
  /// Stall length per delayed round, in milliseconds.
  int delay_ms = 0;

  // --- ingest (harness-side corruption of byte streams) ---
  /// Per-byte bit-flip probability applied by corrupt_bytes().
  double flip_byte_rate = 0.0;
  /// Fraction of the tail corrupt_bytes() cuts off (0 keeps everything).
  double truncate_fraction = 0.0;

  /// Parse a comma-separated spec: "seed=42,stale=0.05,delay-rounds=3,
  /// delay-ms=10,flip=0.01,trunc=0.5".
  /// Unknown keys or unparsable values throw Error(kInvalidArgument).
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Canonical spec string (parse(to_spec()) round-trips).
  [[nodiscard]] std::string to_spec() const;

  // Deterministic per-item decisions.
  [[nodiscard]] bool corrupt_color(int round, vid_t u) const;
  [[nodiscard]] bool delay_round(int round) const {
    return delay_ms > 0 && round <= delay_rounds;
  }

  /// Corrupted copy of `bytes`: truncated to (1 - truncate_fraction) of
  /// its length, then bit-flipped per flip_byte_rate. `variant` selects
  /// one member of the corruption corpus for this plan.
  [[nodiscard]] std::string corrupt_bytes(const std::string& bytes,
                                          std::uint64_t variant = 0) const;
};

/// Overwrite a deterministic subset of colored vertices with the color
/// of a conflicting distance-2 partner (BGPC: another vertex of a shared
/// net). Returns the number of vertices actually corrupted.
vid_t inject_stale_colors(const FaultPlan& plan, const BipartiteGraph& g,
                          int round, std::span<color_t> colors);

/// D2GC flavor: the stale color comes from a distance-<=2 neighbor.
vid_t inject_stale_colors(const FaultPlan& plan, const Graph& g, int round,
                          std::span<color_t> colors);

/// The round hook that applies a plan's kernel faults to one coloring.
/// begin_round sleeps through the plan's straggler stall; end_round
/// writes the stale colors (inject_stale_colors; D1GC takes the D2GC
/// flavor) after conflict removal and returns how many it wrote. Put it
/// before an auditor or checker in ColoringOptions::hooks so they see
/// the injected writes. Holds the plan by reference.
class FaultInjector final : public RoundHook {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  void begin_round(int round, std::span<const color_t> colors) override;
  vid_t end_round(const BipartiteView& view, std::span<color_t> colors,
                  const std::vector<vid_t>& /*next_queue*/) override {
    return inject_stale_colors(plan_, view.g, round_, colors);
  }
  vid_t end_round(const ClosedView& view, std::span<color_t> colors,
                  const std::vector<vid_t>& /*next_queue*/) override {
    return inject_stale_colors(plan_, view.g, round_, colors);
  }
  vid_t end_round(const Distance1View& view, std::span<color_t> colors,
                  const std::vector<vid_t>& /*next_queue*/) override {
    return inject_stale_colors(plan_, view.g, round_, colors);
  }

 private:
  const FaultPlan& plan_;
  int round_ = 0;
};

}  // namespace gcol
