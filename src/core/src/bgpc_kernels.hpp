// Internal BGPC phase kernels (Algorithms 4-8). The public entry point
// is color_bgpc() in greedcolor/core/bgpc.hpp; the Table I harness
// reaches Alg. 6 via ColoringOptions::net_v1. Each thread's forbidden
// set is the stamped MarkerSet in its ThreadWorkspace.
#pragma once

#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/util/counters.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/work_queue.hpp"

namespace gcol::detail {

/// Alg. 4 + policy: vertex-based optimistic coloring of every w in W.
void bgpc_color_vertex(const BipartiteGraph& g, const std::vector<vid_t>& w,
                       color_t* c, std::vector<ThreadWorkspace>& ws,
                       BalancePolicy balance, int chunk, int threads,
                       KernelCounters& counters);

/// Alg. 8 + policy: two-pass net-based coloring; colors every vertex
/// that is uncolored or locally duplicated, across all nets.
void bgpc_color_net(const BipartiteGraph& g, color_t* c,
                    std::vector<ThreadWorkspace>& ws, BalancePolicy balance,
                    int chunk, int threads, KernelCounters& counters);

/// Alg. 6 (most-optimistic single-pass net coloring), first-fit or
/// reverse first-fit ("Alg. 6 + reverse" of Table I).
void bgpc_color_net_v1(const BipartiteGraph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, bool reverse,
                       int chunk, int threads, KernelCounters& counters);

/// Alg. 5: vertex-based conflict removal over W. Conflicting vertices
/// (ties broken toward the larger id) are uncolored and collected into
/// `wnext` through the selected queue strategy.
void bgpc_conflict_vertex(const BipartiteGraph& g, const std::vector<vid_t>& w,
                          color_t* c, QueuePolicy queue, int chunk,
                          int threads, std::vector<vid_t>& wnext,
                          KernelCounters& counters);

/// Alg. 7: net-based conflict removal over every net; uncolored
/// vertices are deduplicated via an atomic exchange and collected
/// lazily.
void bgpc_conflict_net(const BipartiteGraph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, int chunk,
                       int threads, std::vector<vid_t>& wnext,
                       KernelCounters& counters);

}  // namespace gcol::detail
