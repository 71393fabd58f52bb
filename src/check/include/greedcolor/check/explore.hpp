// Schedule-space exploration drivers for gcol-mc.
//
// explore() repeatedly runs one checked coloring under an McContext,
// letting a Strategy pick the interleaving each time:
//
//   kExhaustive — DFS over every decision point, optional state-hash
//                 pruning; complete on tiny fixtures.
//   kDpor       — the same DFS with a sleep-set reduction over
//                 same-vertex access dependencies (DPOR-lite): schedules
//                 that only permute independent accesses are explored
//                 once. The default.
//   kRandom     — seeded random schedules, a fixed budget; for fixtures
//                 too big to exhaust.
//   kReplay     — one execution driven by a recorded McTrace.
//
// On the first violating execution the explorer minimizes the witness
// (shortest decision prefix that still reproduces the same violation)
// and returns it as a replayable trace.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "greedcolor/check/mc.hpp"
#include "greedcolor/check/trace.hpp"
#include "greedcolor/core/options.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::check {

enum class ExploreMode : std::uint8_t { kExhaustive, kDpor, kRandom, kReplay };

[[nodiscard]] const char* to_string(ExploreMode mode);
/// Parse "exhaustive" / "dpor" / "random" / "replay"; throws
/// Error(kInvalidArgument) otherwise.
[[nodiscard]] ExploreMode explore_mode_from_string(const std::string& name);

struct McOptions {
  ExploreMode mode = ExploreMode::kDpor;
  /// Virtual threads = the kernel's OpenMP team size (clamped to >= 2;
  /// one thread has exactly one schedule).
  int virtual_threads = 2;
  std::uint64_t seed = 1;                  ///< kRandom
  std::uint64_t random_schedules = 256;    ///< kRandom budget
  std::uint64_t max_schedules = 1u << 20;  ///< DFS safety valve
  double time_budget_seconds = 0.0;        ///< 0 = uncapped
  /// kExhaustive only: prune decision subtrees whose pre-decision state
  /// (colors + thread positions) hashes equal to one already explored.
  /// Hash collisions could in principle hide a schedule, so this is a
  /// pruning heuristic, not part of the completeness argument; disable
  /// for a ground-truth run.
  bool hash_prune = true;
  bool stop_on_violation = true;
  bool minimize = true;  ///< shrink the witness trace before returning
  /// Rounds after which the speculative loop counts as livelocked; also
  /// clamps ColoringOptions::max_rounds so diverging schedules fail
  /// fast instead of spinning to the engine's own cap.
  int convergence_round_limit = 32;
  McTrace replay;  ///< kReplay input
};

struct McResult {
  std::uint64_t schedules_explored = 0;
  std::uint64_t decisions_total = 0;
  std::uint64_t sleep_pruned = 0;  ///< branches skipped by sleep sets
  std::uint64_t hash_pruned = 0;   ///< subtrees skipped by state hashing
  /// True when the DFS exhausted the (reduced) schedule space; always
  /// false for kRandom (sampling) — budget runs end budget_exhausted.
  bool complete = false;
  bool budget_exhausted = false;
  int max_team = 0;  ///< largest kernel team actually observed
  std::vector<McViolation> violations;  ///< from the witness execution
  McTrace witness;                      ///< replayable violating schedule

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Exploration core. `run_one` must perform one complete coloring that
/// (a) appends `ctx` to ColoringOptions::hooks and (b) is a
/// deterministic function of the schedule decisions. Throws
/// Error(kInvalidArgument) when the build lacks GCOL_MC.
[[nodiscard]] McResult explore(
    McContext& ctx, const McOptions& opts,
    const std::function<void(McContext&)>& run_one);

/// Model-check one BGPC / D2GC configuration on a (small) fixture.
/// `base` is copied; its num_threads is overridden by virtual_threads,
/// its max_rounds clamped by convergence_round_limit, the checker is
/// appended to its hooks, and a sequential-fallback result is reported
/// as a kLivelock violation.
[[nodiscard]] McResult model_check_bgpc(const BipartiteGraph& g,
                                        const ColoringOptions& base,
                                        const std::vector<vid_t>& order,
                                        const McOptions& opts);
[[nodiscard]] McResult model_check_d2gc(const Graph& g,
                                        const ColoringOptions& base,
                                        const std::vector<vid_t>& order,
                                        const McOptions& opts);

}  // namespace gcol::check
