// Sequential passes over an existing coloring, both run by the engine's
// sequential first-fit (Alg. 4 over the large nets' color summaries):
//
// Iterated-greedy recoloring (Culberson-style): a post-pass that never
// increases and often decreases the number of colors. Implements the
// paper's related-work improvement path ("iterative recoloring", ref
// [30]) as an optional extension.
//
// Verify-and-repair: recovery of an invalid coloring. Given a color
// array that may contain conflicts, holes, or outright garbage (after
// injected faults, a crashed worker, or an untrusted cache), repair_*
// resets garbage entries, uncolors every vertex that shares a net with
// an earlier holder of its color (one sweep over every net, O(Σ |net|)),
// and recolors only the uncolored vertices, in id order, against the
// live colors. The result always passes check_*. The sweep reads the
// whole graph; the recoloring costs what the damage costs.
#pragma once

#include <vector>

#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

/// One iterated-greedy pass for BGPC: vertices are re-greedy-colored
/// grouped by current color, largest color first, uncolored vertices
/// last. The class structure guarantees the new color count is <= the
/// old one. Returns the new color count. Throws Error(kInvalidArgument)
/// when colors.size() != g.num_vertices() or an entry is below kNoColor.
color_t recolor_bgpc(const BipartiteGraph& g, std::vector<color_t>& colors);

/// Same for D2GC.
color_t recolor_d2gc(const Graph& g, std::vector<color_t>& colors);

/// Repeat recolor passes until no improvement (at most `max_passes`).
color_t recolor_bgpc_to_fixpoint(const BipartiteGraph& g,
                                 std::vector<color_t>& colors,
                                 int max_passes = 16);

/// The "expensive" balancing alternative the paper's Section V declines
/// to run online: a sequential post-pass that re-assigns every vertex to
/// the least-populated color among its allowed ones, maintaining exact
/// cardinalities. Never increases the color count; typically shrinks
/// the cardinality stddev far below B1/B2 at the cost of a full
/// sequential sweep. Returns the (possibly smaller) color count.
color_t balanced_recolor_bgpc(const BipartiteGraph& g,
                              std::vector<color_t>& colors);

struct RepairStats {
  vid_t sanitized = 0;   ///< garbage entries (negative / absurdly large) reset
  vid_t conflicted = 0;  ///< colored vertices uncolored by the conflict sweep
  vid_t repaired = 0;    ///< vertices (re)colored by the first-fit pass
  [[nodiscard]] bool clean() const {
    return sanitized == 0 && conflicted == 0 && repaired == 0;
  }
};

/// Repair `colors` in place into a valid BGPC coloring of g. Throws
/// Error(kInvalidArgument) when colors.size() != g.num_vertices().
RepairStats repair_bgpc(const BipartiteGraph& g, std::vector<color_t>& colors);

/// Repair `colors` in place into a valid D2GC coloring of g.
RepairStats repair_d2gc(const Graph& g, std::vector<color_t>& colors);

}  // namespace gcol
