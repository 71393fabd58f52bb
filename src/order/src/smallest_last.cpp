// Degeneracy-style orderings (smallest-last, incidence-degree) on the
// dynamic distance-2 degree, built on BucketQueue.
#include <algorithm>
#include <vector>

#include "greedcolor/graph/builder.hpp"
#include "greedcolor/order/bucket_queue.hpp"
#include "greedcolor/order/ordering.hpp"

namespace gcol {

namespace {

/// d2deg(u) = Σ_{v ∈ nets(u)} (|vtxs(v)| − 1): the distance-2 degree
/// with multiplicity — the key all degree-based BGPC orderings use.
std::vector<eid_t> d2_degrees(const BipartiteGraph& g) {
  std::vector<eid_t> deg(static_cast<std::size_t>(g.num_vertices()), 0);
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    eid_t d = 0;
    for (const vid_t v : g.nets(u)) d += g.net_degree(v) - 1;
    deg[static_cast<std::size_t>(u)] = d;
  }
  return deg;
}

/// Accumulate, per remaining vertex w, how many nets it shares with u
/// (the exact d2-degree delta when u leaves/enters the ordered set).
void shared_net_deltas(const BipartiteGraph& g, vid_t u,
                       const BucketQueue& q, std::vector<eid_t>& delta,
                       std::vector<vid_t>& touched) {
  touched.clear();
  for (const vid_t v : g.nets(u)) {
    for (const vid_t w : g.vtxs(v)) {
      if (w == u || !q.contains(w)) continue;
      if (delta[static_cast<std::size_t>(w)] == 0) touched.push_back(w);
      ++delta[static_cast<std::size_t>(w)];
    }
  }
}

}  // namespace

std::vector<vid_t> smallest_last_d2(const BipartiteGraph& g) {
  const vid_t n = g.num_vertices();
  std::vector<eid_t> deg = d2_degrees(g);
  const eid_t max_key =
      n == 0 ? 0 : *std::max_element(deg.begin(), deg.end());
  BucketQueue q(std::move(deg), max_key);

  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::vector<eid_t> delta(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> touched;
  for (vid_t i = n; i-- > 0;) {
    const vid_t u = q.find_min();
    q.remove(u);
    order[static_cast<std::size_t>(i)] = u;  // smallest degree goes last
    shared_net_deltas(g, u, q, delta, touched);
    for (const vid_t w : touched) {
      q.decrease(w, delta[static_cast<std::size_t>(w)]);
      delta[static_cast<std::size_t>(w)] = 0;
    }
  }
  return order;
}

std::vector<vid_t> incidence_degree_d2(const BipartiteGraph& g) {
  const vid_t n = g.num_vertices();
  // Keys are "ordered distance-2 neighbors seen so far" (multiplicity);
  // capacity must admit the largest possible final count = max d2deg.
  std::vector<eid_t> static_deg = d2_degrees(g);
  const eid_t max_key =
      n == 0 ? 0
             : *std::max_element(static_deg.begin(), static_deg.end());
  BucketQueue q(std::vector<eid_t>(static_cast<std::size_t>(n), 0), max_key);

  // Seed: ColPack starts incidence-degree from a max-degree vertex.
  vid_t seed_vertex = 0;
  for (vid_t u = 1; u < n; ++u)
    if (static_deg[static_cast<std::size_t>(u)] >
        static_deg[static_cast<std::size_t>(seed_vertex)])
      seed_vertex = u;

  std::vector<vid_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<eid_t> delta(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> touched;
  for (vid_t i = 0; i < n; ++i) {
    const vid_t u = i == 0 ? seed_vertex : q.find_max();
    q.remove(u);
    order.push_back(u);
    shared_net_deltas(g, u, q, delta, touched);
    for (const vid_t w : touched) {
      q.increase(w, delta[static_cast<std::size_t>(w)]);
      delta[static_cast<std::size_t>(w)] = 0;
    }
  }
  return order;
}

}  // namespace gcol
