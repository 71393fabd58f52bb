#include "greedcolor/order/locality.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace gcol {

namespace {

/// Rebuild one CSR half under old->new permutations of both its row and
/// column spaces: row_inv[new_row] = old_row, col_perm[old_col] =
/// new_col. Segments come out sorted.
void permute_csr(const std::vector<eid_t>& ptr, const std::vector<vid_t>& adj,
                 const std::vector<vid_t>& row_inv,
                 const std::vector<vid_t>& col_perm,
                 std::vector<eid_t>& out_ptr, std::vector<vid_t>& out_adj) {
  const std::size_t rows = row_inv.size();
  out_ptr.assign(rows + 1, 0);
  out_adj.resize(adj.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto old_row = static_cast<std::size_t>(row_inv[r]);
    out_ptr[r + 1] =
        out_ptr[r] + (ptr[old_row + 1] - ptr[old_row]);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const auto old_row = static_cast<std::size_t>(row_inv[r]);
    eid_t out = out_ptr[r];
    for (eid_t e = ptr[old_row]; e < ptr[old_row + 1]; ++e)
      out_adj[static_cast<std::size_t>(out++)] =
          col_perm[static_cast<std::size_t>(adj[static_cast<std::size_t>(e)])];
    std::sort(out_adj.begin() + out_ptr[r], out_adj.begin() + out_ptr[r + 1]);
  }
}

std::vector<vid_t> invert(const std::vector<vid_t>& perm) {
  std::vector<vid_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<vid_t>(i);
  return inv;
}

}  // namespace

BgpcLocalityPlan make_locality_plan(const BipartiteGraph& g,
                                    LocalityMode mode) {
  BgpcLocalityPlan plan;
  if (mode == LocalityMode::kNone) {
    plan.graph = g;
    return plan;
  }
  // kFull. Nets by descending degree (stable on id): the widest nets —
  // the ones every kernel spends the most time in — get the smallest
  // ids and the front of the nadj array.
  const vid_t nn = g.num_nets();
  const vid_t n = g.num_vertices();
  std::vector<vid_t> nets_by_deg(static_cast<std::size_t>(nn));
  std::iota(nets_by_deg.begin(), nets_by_deg.end(), vid_t{0});
  std::stable_sort(nets_by_deg.begin(), nets_by_deg.end(),
                   [&](vid_t a, vid_t b) {
                     return g.net_degree(a) > g.net_degree(b);
                   });
  plan.net_perm = invert(nets_by_deg);

  // Vertices by first touch over the renumbered nets: members of one
  // net become contiguous, so its color loads land on shared lines.
  plan.vertex_perm.assign(static_cast<std::size_t>(n), kInvalidVertex);
  vid_t next = 0;
  for (const vid_t v : nets_by_deg)
    for (const vid_t u : g.vtxs(v))
      if (plan.vertex_perm[static_cast<std::size_t>(u)] == kInvalidVertex)
        plan.vertex_perm[static_cast<std::size_t>(u)] = next++;
  for (vid_t u = 0; u < n; ++u)  // net-less vertices keep relative order
    if (plan.vertex_perm[static_cast<std::size_t>(u)] == kInvalidVertex)
      plan.vertex_perm[static_cast<std::size_t>(u)] = next++;

  const std::vector<vid_t> vertex_inv = invert(plan.vertex_perm);
  std::vector<eid_t> vptr;
  std::vector<vid_t> vadj;
  std::vector<eid_t> nptr;
  std::vector<vid_t> nadj;
  permute_csr(g.vptr(), g.vadj(), vertex_inv, plan.net_perm, vptr, vadj);
  permute_csr(g.nptr(), g.nadj(), nets_by_deg, plan.vertex_perm, nptr, nadj);
  plan.graph = BipartiteGraph(n, nn, std::move(vptr), std::move(vadj),
                              std::move(nptr), std::move(nadj));
  return plan;
}

GraphLocalityPlan make_locality_plan(const Graph& g, LocalityMode mode) {
  GraphLocalityPlan plan;
  if (mode == LocalityMode::kNone) {
    plan.graph = g;
    return plan;
  }
  // kFull: BFS numbering — distance-2 neighborhoods become id-compact.
  // Components are seeded in descending degree of their seed vertex.
  const vid_t n = g.num_vertices();
  std::vector<vid_t> seeds(static_cast<std::size_t>(n));
  std::iota(seeds.begin(), seeds.end(), vid_t{0});
  std::stable_sort(seeds.begin(), seeds.end(), [&](vid_t a, vid_t b) {
    return g.degree(a) > g.degree(b);
  });
  plan.vertex_perm.assign(static_cast<std::size_t>(n), kInvalidVertex);
  std::queue<vid_t> frontier;
  vid_t next = 0;
  for (const vid_t seed : seeds) {
    if (plan.vertex_perm[static_cast<std::size_t>(seed)] != kInvalidVertex)
      continue;
    plan.vertex_perm[static_cast<std::size_t>(seed)] = next++;
    frontier.push(seed);
    while (!frontier.empty()) {
      const vid_t v = frontier.front();
      frontier.pop();
      for (const vid_t u : g.neighbors(v)) {
        if (plan.vertex_perm[static_cast<std::size_t>(u)] == kInvalidVertex) {
          plan.vertex_perm[static_cast<std::size_t>(u)] = next++;
          frontier.push(u);
        }
      }
    }
  }

  const std::vector<vid_t> inv = invert(plan.vertex_perm);
  std::vector<eid_t> ptr;
  std::vector<vid_t> adj;
  permute_csr(g.ptr(), g.adj(), inv, plan.vertex_perm, ptr, adj);
  plan.graph = Graph(n, std::move(ptr), std::move(adj));
  return plan;
}

std::vector<vid_t> apply_vertex_perm(const std::vector<vid_t>& perm,
                                     const std::vector<vid_t>& order,
                                     vid_t n) {
  if (perm.empty()) return order;
  if (perm.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("apply_vertex_perm: perm size mismatch");
  std::vector<vid_t> out;
  out.reserve(static_cast<std::size_t>(n));
  if (order.empty()) {
    out = perm;  // position i still processes logical vertex i
    return out;
  }
  for (const vid_t u : order) out.push_back(perm[static_cast<std::size_t>(u)]);
  return out;
}

std::vector<color_t> restore_colors(const std::vector<vid_t>& perm,
                                    std::vector<color_t> colors) {
  if (perm.empty()) return colors;
  std::vector<color_t> out(colors.size());
  for (std::size_t u = 0; u < perm.size(); ++u)
    out[u] = colors[static_cast<std::size_t>(perm[u])];
  return out;
}

}  // namespace gcol
