#include "greedcolor/order/ordering.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "greedcolor/graph/builder.hpp"
#include "greedcolor/util/prng.hpp"

namespace gcol {

namespace {

std::vector<vid_t> identity_order(vid_t n) {
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), vid_t{0});
  return order;
}

std::vector<vid_t> random_order(vid_t n, std::uint64_t seed) {
  std::vector<vid_t> order = identity_order(n);
  Xoshiro256 rng(seed ^ 0x5eedULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::vector<vid_t> largest_first_d2(const BipartiteGraph& g) {
  const vid_t n = g.num_vertices();
  std::vector<eid_t> deg(static_cast<std::size_t>(n), 0);
  for (vid_t u = 0; u < n; ++u) {
    eid_t d = 0;
    for (const vid_t v : g.nets(u)) d += g.net_degree(v) - 1;
    deg[static_cast<std::size_t>(u)] = d;
  }
  std::vector<vid_t> order = identity_order(n);
  std::stable_sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    return deg[static_cast<std::size_t>(a)] >
           deg[static_cast<std::size_t>(b)];
  });
  return order;
}

}  // namespace

std::string to_string(OrderingKind k) {
  switch (k) {
    case OrderingKind::kNatural:
      return "natural";
    case OrderingKind::kRandom:
      return "random";
    case OrderingKind::kLargestFirst:
      return "largest-first";
    case OrderingKind::kSmallestLast:
      return "smallest-last";
    case OrderingKind::kIncidenceDegree:
      return "incidence-degree";
  }
  return "?";
}

OrderingKind ordering_from_string(const std::string& name) {
  if (name == "natural") return OrderingKind::kNatural;
  if (name == "random") return OrderingKind::kRandom;
  if (name == "largest-first" || name == "lf")
    return OrderingKind::kLargestFirst;
  if (name == "smallest-last" || name == "sl")
    return OrderingKind::kSmallestLast;
  if (name == "incidence-degree" || name == "id")
    return OrderingKind::kIncidenceDegree;
  throw std::invalid_argument("unknown ordering: " + name);
}

std::vector<vid_t> make_ordering(const BipartiteGraph& g, OrderingKind kind,
                                 std::uint64_t seed) {
  switch (kind) {
    case OrderingKind::kNatural:
      return identity_order(g.num_vertices());
    case OrderingKind::kRandom:
      return random_order(g.num_vertices(), seed);
    case OrderingKind::kLargestFirst:
      return largest_first_d2(g);
    case OrderingKind::kSmallestLast:
      return smallest_last_d2(g);
    case OrderingKind::kIncidenceDegree:
      return incidence_degree_d2(g);
  }
  throw std::logic_error("unreachable ordering kind");
}

std::vector<vid_t> make_ordering(const Graph& g, OrderingKind kind,
                                 std::uint64_t seed) {
  switch (kind) {
    case OrderingKind::kNatural:
      return identity_order(g.num_vertices());
    case OrderingKind::kRandom:
      return random_order(g.num_vertices(), seed);
    default:
      // Degree-based D2GC orders run on the closed-neighborhood
      // bipartite view (net v = N[v]), whose BGPC conflicts equal the
      // graph's distance-2 conflicts; vertex ids are preserved.
      return make_ordering(graph_to_bipartite_closed(g), kind, seed);
  }
}

bool is_permutation_of(const std::vector<vid_t>& order, vid_t n) {
  if (order.size() != static_cast<std::size_t>(n)) return false;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const vid_t v : order) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

}  // namespace gcol
