// Internal D2GC phase kernels (Algorithms 9-10 and the vertex-based
// counterparts the authors derived from ColPack's BGPC code). Each
// thread's forbidden set is the stamped MarkerSet in its
// ThreadWorkspace.
#pragma once

#include <vector>

#include "greedcolor/core/options.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/counters.hpp"
#include "greedcolor/util/marker_set.hpp"

namespace gcol::detail {

/// Vertex-based optimistic D2GC coloring of every w in W: forbidden
/// colors come from the full distance-<=2 neighborhood.
void d2gc_color_vertex(const Graph& g, const std::vector<vid_t>& w,
                       color_t* c, std::vector<ThreadWorkspace>& ws,
                       BalancePolicy balance, int chunk, int threads,
                       KernelCounters& counters);

/// Alg. 9: net-based D2GC coloring — every closed neighborhood is
/// scanned; its uncolored/duplicated members are reverse-first-fit
/// colored from |nbor(v)|.
void d2gc_color_net(const Graph& g, color_t* c,
                    std::vector<ThreadWorkspace>& ws, BalancePolicy balance,
                    int chunk, int threads, KernelCounters& counters);

/// Vertex-based D2GC conflict removal over W (larger id loses).
void d2gc_conflict_vertex(const Graph& g, const std::vector<vid_t>& w,
                          color_t* c, QueuePolicy queue, int chunk,
                          int threads, std::vector<vid_t>& wnext,
                          KernelCounters& counters);

/// Alg. 10: net-based D2GC conflict removal over every closed
/// neighborhood; later same-colored members are uncolored.
void d2gc_conflict_net(const Graph& g, color_t* c,
                       std::vector<ThreadWorkspace>& ws, int chunk,
                       int threads, std::vector<vid_t>& wnext,
                       KernelCounters& counters);

}  // namespace gcol::detail
