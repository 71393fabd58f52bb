// Distance-1 graph coloring (D1GC).
//
// The paper's introduction contrasts BGPC/D2GC against classic D1GC:
// sequential D1GC is subsecond on most real graphs while the
// distance-2 problems take minutes — this module provides that
// baseline plus the two standard parallelizations referenced in the
// related work: the speculative color/detect loop (Gebremedhin-Manne /
// Çatalyürek et al., the same framework as our BGPC engine) and the
// priority-MIS algorithm of Jones & Plassmann.
#pragma once

#include <optional>
#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/csr.hpp"

namespace gcol {

/// Sequential greedy first-fit over `order` (natural when empty).
[[nodiscard]] ColoringResult color_d1gc_sequential(
    const Graph& g, const std::vector<vid_t>& order = {});

/// Speculative parallel D1GC: optimistic coloring + conflict removal
/// rounds on the same engine as color_bgpc. Honors chunk_size, queue
/// policy, balance, num_threads and the watchdog / fault /
/// auditor / checker / tracer fields; net_color_rounds and
/// net_conflict_rounds must be 0 (no net kernels in D1).
[[nodiscard]] ColoringResult color_d1gc(
    const Graph& g, const ColoringOptions& options = {},
    const std::vector<vid_t>& order = {});

/// Jones–Plassmann: random-priority maximal-independent-set rounds.
/// The result is a deterministic function of (graph, seed) regardless
/// of the thread count — the classic trade of speed for determinism.
[[nodiscard]] ColoringResult color_d1gc_jones_plassmann(
    const Graph& g, std::uint64_t seed = 1, int num_threads = 0);

/// Validity: no two adjacent vertices share a color, all colored.
[[nodiscard]] std::optional<ColoringViolation> check_d1gc(
    const Graph& g, const std::vector<color_t>& colors);
[[nodiscard]] bool is_valid_d1gc(const Graph& g,
                                 const std::vector<color_t>& colors);

/// Greedy bound: 1 + max degree.
[[nodiscard]] color_t d1gc_color_bound(const Graph& g);

}  // namespace gcol
