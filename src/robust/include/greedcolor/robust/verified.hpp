// Fail-safe coloring entry points: the contract of the robust pipeline.
//
// Each wrapper runs the underlying engine (watchdog options and fault
// plans included), verifies the result with the check_* oracles, and —
// when anything leaked through (injected faults, speculative races, a
// degraded fallback interleaving) — repairs only the damaged vertices
// and re-verifies. The guarantee: the returned coloring ALWAYS passes
// check_* or a typed gcol::Error is thrown; never an invalid coloring,
// never a crash, never a hang (deadline + round budgets bound the run).
// API misuse (bad options, size-mismatched orders) surfaces as
// Error(kInvalidArgument); a post-repair verification failure — which
// would be a greedcolor bug — as Error(kInternalInvariant).
#pragma once

#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"

namespace gcol {

/// color_bgpc + verify + incremental repair. degraded/repaired_vertices
/// report whether and how much recovery was needed.
[[nodiscard]] ColoringResult color_bgpc_verified(
    const BipartiteGraph& g, const ColoringOptions& options = {},
    const std::vector<vid_t>& order = {});

/// color_d2gc + verify + incremental repair.
[[nodiscard]] ColoringResult color_d2gc_verified(
    const Graph& g, const ColoringOptions& options = {},
    const std::vector<vid_t>& order = {});

}  // namespace gcol
