// Net views: the adjacency the one speculative coloring engine walks.
//
// Every problem the engine solves is BGPC over some hypergraph: vertex
// w must differ in color from every other member of each net it sits
// in. A view names those nets without materializing them:
//
//   nets(w)    the nets containing vertex w;
//   others(v)  the members of net v, apart from its center;
//   kCenter    net v also contains vertex v itself (its center).
//
// BipartiteView is the paper's BGPC input as stored. ClosedView is
// D2GC's closed-neighborhood hypergraph (net N[v] = {v} ∪ nbor(v),
// paper §IV) read straight from the unipartite CSR, so D2GC on G runs
// the BGPC kernels on graph_to_bipartite_closed(G) without building it.
// Distance1View is classic D1GC: w's nets are its edges, each seen as
// a center u with no other members, so only distance-1 colors conflict.
//
// Views are compile-time types holding one graph reference; kernels
// take them as template parameters, so no call in a kernel loop is
// indirect.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

/// The engine's name and trace span names for one view (string
/// literals, never owned).
struct EngineNames {
  const char* name;
  const char* round;
  const char* color;
  const char* conflict;
  const char* cleanup;
};

/// Vertices per static chunk of a color_bound() sweep: interleaved
/// chunks spread a skewed degree distribution over the team.
inline constexpr int kBoundChunk = 512;

struct BipartiteView {
  static constexpr bool kCenter = false;
  /// The net-based kernels (Alg. 6-10) apply to this view.
  static constexpr bool kNetKernels = true;
  static constexpr EngineNames kNames{"bgpc", "bgpc.round", "bgpc.color",
                                      "bgpc.conflict",
                                      "bgpc.sequential_cleanup"};

  const BipartiteGraph& g;

  [[nodiscard]] vid_t num_vertices() const { return g.num_vertices(); }
  [[nodiscard]] vid_t num_nets() const { return g.num_nets(); }
  [[nodiscard]] std::span<const vid_t> nets(vid_t w) const {
    return g.nets(w);
  }
  [[nodiscard]] std::span<const vid_t> others(vid_t v) const {
    return g.vtxs(v);
  }
  /// Largest net, center included (net kernels' local queue bound).
  [[nodiscard]] vid_t max_net_size() const { return g.max_net_degree(); }
  /// Most nets one vertex lists, with multiplicity.
  [[nodiscard]] vid_t max_nets_per_vertex() const {
    return g.max_vertex_degree();
  }

  /// 1 + the maximum distance-2 degree (with multiplicity): no kernel
  /// can assign a color id above it. A max fold over the vertices on
  /// `threads` threads.
  [[nodiscard]] color_t color_bound(int threads) const {
    const BipartiteGraph& graph = g;
    const vid_t n = graph.num_vertices();
    TeamFold<eid_t> best(0);
#pragma omp parallel num_threads(threads) default(none) shared(graph, best) \
    firstprivate(n)
    {
      eid_t mine = best.get();
#pragma omp for schedule(static, kBoundChunk) nowait
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
        eid_t d2 = 0;
        for (const vid_t v : graph.nets(static_cast<vid_t>(i)))
          d2 += graph.net_degree(v) - 1;
        mine = std::max(mine, d2);
      }
      best.fold(mine, std::ranges::max);
    }
    return static_cast<color_t>(best.get() + 1);
  }
};

struct ClosedView {
  static constexpr bool kCenter = true;
  static constexpr bool kNetKernels = true;
  static constexpr EngineNames kNames{"d2gc", "d2gc.round", "d2gc.color",
                                      "d2gc.conflict",
                                      "d2gc.sequential_cleanup"};

  const Graph& g;

  [[nodiscard]] vid_t num_vertices() const { return g.num_vertices(); }
  [[nodiscard]] vid_t num_nets() const { return g.num_vertices(); }
  [[nodiscard]] std::span<const vid_t> nets(vid_t w) const {
    return g.neighbors(w);
  }
  [[nodiscard]] std::span<const vid_t> others(vid_t v) const {
    return g.neighbors(v);
  }
  [[nodiscard]] vid_t max_net_size() const { return g.max_degree() + 1; }
  [[nodiscard]] vid_t max_nets_per_vertex() const { return g.max_degree(); }

  /// 2 + max_v Σ_{u ∈ nbor(v)} |nbor(u)| (multiplicity bound): no
  /// kernel can assign a color id above it. A max fold over the vertices
  /// on `threads` threads.
  [[nodiscard]] color_t color_bound(int threads) const {
    const Graph& graph = g;
    const vid_t n = graph.num_vertices();
    TeamFold<eid_t> best(0);
#pragma omp parallel num_threads(threads) default(none) shared(graph, best) \
    firstprivate(n)
    {
      eid_t mine = best.get();
#pragma omp for schedule(static, kBoundChunk) nowait
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
        const auto v = static_cast<vid_t>(i);
        eid_t d2 = graph.degree(v);
        for (const vid_t u : graph.neighbors(v)) d2 += graph.degree(u) - 1;
        mine = std::max(mine, d2);
      }
      best.fold(mine, std::ranges::max);
    }
    return static_cast<color_t>(best.get() + 2);
  }
};

struct Distance1View {
  static constexpr bool kCenter = true;
  /// A net here is one edge seen from one endpoint; there is no net
  /// list to sweep, so only the vertex-based kernels run.
  static constexpr bool kNetKernels = false;
  static constexpr EngineNames kNames{"d1gc", "d1gc.round", "d1gc.color",
                                      "d1gc.conflict",
                                      "d1gc.sequential_cleanup"};

  const Graph& g;

  [[nodiscard]] vid_t num_vertices() const { return g.num_vertices(); }
  [[nodiscard]] std::span<const vid_t> nets(vid_t w) const {
    return g.neighbors(w);
  }
  [[nodiscard]] std::span<const vid_t> others(vid_t /*v*/) const {
    return {};
  }
  [[nodiscard]] vid_t max_net_size() const { return 1; }

  /// Greedy bound: 1 + max degree (already stored: no sweep to share).
  [[nodiscard]] color_t color_bound(int /*threads*/) const {
    return g.max_degree() + 1;
  }
};

}  // namespace gcol
