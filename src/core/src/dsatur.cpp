#include "greedcolor/core/dsatur.hpp"

#include <algorithm>
#include <vector>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/order/bucket_queue.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/timer.hpp"
#include "phase_kernels.hpp"

namespace gcol {

namespace {

/// Per-vertex dynamic bitmap of colors seen in the neighborhood; the
/// saturation degree is the population count, tracked incrementally.
class SaturationBits {
 public:
  explicit SaturationBits(std::size_t n) : bits_(n) {}

  /// Returns true when `color` was not yet recorded for `v`.
  bool record(vid_t v, color_t color) {
    auto& words = bits_[static_cast<std::size_t>(v)];
    const auto word = static_cast<std::size_t>(color) / 64;
    const std::uint64_t mask = 1ULL << (static_cast<std::size_t>(color) % 64);
    if (words.size() <= word) words.resize(word + 1, 0);
    if (words[word] & mask) return false;
    words[word] |= mask;
    return true;
  }

 private:
  std::vector<std::vector<std::uint64_t>> bits_;
};

/// DSATUR over a net view: always color next the uncolored vertex whose
/// nets hold the most distinct colors (ties by bucket order), first-fit.
/// The first pick is seeded at a vertex with the most peers (members of
/// its nets other than itself, with multiplicity), as Brélaz
/// prescribes.
template <class V>
ColoringResult dsatur(const V& view) {
  const vid_t n = view.num_vertices();
  ColoringResult result;
  result.colors.assign(static_cast<std::size_t>(n), kNoColor);
  if (n == 0) return result;
  color_t* const c = result.colors.data();

  vid_t seed_vertex = 0;
  eid_t seed_peers = 0;
  for (vid_t u = 0; u < n; ++u) {
    eid_t peers = 0;
    // A BGPC net lists u among its others; a distance-1 net is its
    // center alone.
    for (const vid_t v : view.nets(u))
      peers += V::kCenter ? 1 + view.others(v).size()
                          : view.others(v).size() - 1;
    if (peers > seed_peers) {
      seed_vertex = u;
      seed_peers = peers;
    }
  }
  // Saturation never exceeds the color count, itself at most the bound
  // (max distance-2 degree + 1).
  const color_t bound = view.color_bound(1);
  BucketQueue queue(std::vector<eid_t>(static_cast<std::size_t>(n), 0),
                    static_cast<eid_t>(bound));

  SaturationBits seen(static_cast<std::size_t>(n));
  MarkerSet forbidden(static_cast<std::size_t>(bound));
  WallTimer total;
  IterationStats stats;
  stats.round = 1;
  stats.queue_size = static_cast<std::size_t>(n);
  KernelCounters& local = stats.color_counters;

  for (vid_t step = 0; step < n; ++step) {
    const vid_t u = step == 0 ? seed_vertex : queue.find_max();
    queue.remove(u);
    forbidden.clear();
    [[maybe_unused]] const std::size_t visited =
        detail::forbid_nets(view, c, u, forbidden);
    GCOL_COUNT(local.edges_visited += visited);
    const color_t col = detail::pick_up(forbidden, 0, local.color_probes);
    detail::store_color(c, u, col);
    GCOL_COUNT(++local.colored);
    // Raise the saturation of every still-uncolored peer that had not
    // seen `col` yet.
    const auto raise = [&](vid_t x) {
      if (x != u && queue.contains(x) && seen.record(x, col))
        queue.increase(x, 1);
    };
    for (const vid_t v : view.nets(u)) {
      if constexpr (V::kCenter) raise(v);
      for (const vid_t x : view.others(v)) raise(x);
    }
  }
  stats.color_seconds = total.seconds();
  result.total_seconds = stats.color_seconds;
  result.rounds = 1;
  result.iterations.push_back(stats);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace

ColoringResult color_bgpc_dsatur(const BipartiteGraph& g) {
  return dsatur(BipartiteView{g});
}

ColoringResult color_d1gc_dsatur(const Graph& g) {
  return dsatur(Distance1View{g});
}

}  // namespace gcol
