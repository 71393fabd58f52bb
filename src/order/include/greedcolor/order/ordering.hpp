// Vertex orderings for the greedy coloring loop.
//
// The paper evaluates two orders: the matrix's *natural* column order
// (Table III) and ColPack's *smallest-last* order (Table IV), which
// typically lowers the color count at the price of a slower sequential
// baseline. We also provide random, largest-first, and incidence-degree
// orders for ablations, mirroring ColPack's ordering menu.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

enum class OrderingKind {
  kNatural,         ///< identity: vertex id order
  kRandom,          ///< seeded uniform shuffle
  kLargestFirst,    ///< static distance-2 degree, descending
  kSmallestLast,    ///< Matula–Beck degeneracy order on the d2 degree
  kIncidenceDegree, ///< greedy max-back-degree (ColPack ID)
};

[[nodiscard]] std::string to_string(OrderingKind k);
[[nodiscard]] OrderingKind ordering_from_string(const std::string& name);

/// Permutation of the V_A vertices of a BGPC instance. Degree-based
/// orders use the distance-2 degree with multiplicity,
/// d2deg(u) = Σ_{v ∈ nets(u)} (|vtxs(v)| − 1), the quantity ColPack's
/// partial-distance-2 orderings are built on.
[[nodiscard]] std::vector<vid_t> make_ordering(const BipartiteGraph& g,
                                               OrderingKind kind,
                                               std::uint64_t seed = 0);

/// Permutation of the vertices of a D2GC instance; degree-based orders
/// use the distance-2 degree with multiplicity over closed
/// neighborhoods.
[[nodiscard]] std::vector<vid_t> make_ordering(const Graph& g,
                                               OrderingKind kind,
                                               std::uint64_t seed = 0);

/// Exact smallest-last order on the dynamic distance-2 degree (the
/// kSmallestLast engine; exposed for tests).
[[nodiscard]] std::vector<vid_t> smallest_last_d2(const BipartiteGraph& g);

/// Incidence-degree order on distance-2 neighbors (the kIncidenceDegree
/// engine; exposed for tests).
[[nodiscard]] std::vector<vid_t> incidence_degree_d2(const BipartiteGraph& g);

/// True iff `order` is a permutation of [0, n).
[[nodiscard]] bool is_permutation_of(const std::vector<vid_t>& order,
                                     vid_t n);

}  // namespace gcol
