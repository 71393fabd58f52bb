#include "greedcolor/core/verify.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/parallel.hpp"
#include "kernels_common.hpp"

namespace gcol {

namespace {

/// Nets one thread takes from the dynamic schedule at a time: enough to
/// amortize the grab, few enough that one hub net cannot strand a
/// thread's whole share behind it.
constexpr int kNetsPerGrab = 64;

/// The first member of net v, in visiting order (the center first on a
/// closed neighborhood, then others(v)), whose color an earlier member
/// already holds; kInvalidVertex when the net's colors are distinct.
template <class V>
vid_t first_repeat(const V& view, const color_t* c, vid_t v,
                   MarkerSet& seen) {
  seen.clear();
  if constexpr (V::kCenter) seen.insert(detail::load_color(c, v));
  for (const vid_t u : view.others(v))
    if (seen.test_and_set(detail::load_color(c, u))) return u;
  return kInvalidVertex;
}

/// The first member of net v, in visiting order, colored `col`.
template <class V>
vid_t first_with_color(const V& view, const color_t* c, vid_t v,
                       color_t col) {
  if constexpr (V::kCenter)
    if (detail::load_color(c, v) == col) return v;
  for (const vid_t u : view.others(v))
    if (detail::load_color(c, u) == col) return u;
  return kInvalidVertex;
}

/// One check for both problems: every vertex colored, then no net of
/// the view (a net of the bipartite graph, or a closed neighborhood
/// N[v]) repeating a color. Both sweeps run on `threads` threads and
/// keep only the lowest offending vertex or net (min folds); that one
/// net is then walked again on one thread. The violation is therefore
/// the one the sequential sweep in vertex and net order would report,
/// at every team size.
template <class V>
std::optional<ColoringViolation> check_nets(const V& view,
                                            const std::vector<color_t>& colors,
                                            const char* clash, int threads) {
  const vid_t n = view.num_vertices();
  if (colors.size() != static_cast<std::size_t>(n))
    return ColoringViolation{kInvalidVertex, kInvalidVertex, kInvalidVertex,
                             "color array size mismatch"};
  const color_t* c = colors.data();
  TeamFold<vid_t> uncolored(n);
  TeamFold<color_t> top(0);
#pragma omp parallel num_threads(threads) default(none) \
    shared(c, uncolored, top) firstprivate(n)
  {
    vid_t first = uncolored.get();
    color_t most = top.get();
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      const color_t ci = detail::load_color(c, static_cast<vid_t>(i));
      if (ci < 0) first = std::min(first, static_cast<vid_t>(i));
      most = std::max(most, ci);
    }
    uncolored.fold(first, std::ranges::min);
    top.fold(most, std::ranges::max);
  }
  if (const vid_t u = uncolored.get(); u < n)
    return ColoringViolation{u, kInvalidVertex, kInvalidVertex,
                             "uncolored vertex"};

  // On an empty array the max fold keeps its identity 0 >= n: ranking
  // then finds no colors and leaves largest at -1, an empty universe.
  std::vector<color_t> ranked;
  color_t largest = top.get();
  if (largest >= n) {
    ranked = colors;
    largest = n + detail::rank_large_colors(ranked, n) - 1;
    c = ranked.data();
  }
  const auto capacity = static_cast<std::size_t>(largest) + 1;
  const vid_t nets = view.num_nets();
  TeamFold<vid_t> lowest(nets);
#pragma omp parallel num_threads(threads) default(none) \
    shared(view, c, lowest) firstprivate(capacity, nets)
  {
    vid_t mine = lowest.get();
    MarkerSet seen(capacity);
#pragma omp for schedule(dynamic, kNetsPerGrab) nowait
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(nets); ++v) {
      if (first_repeat(view, c, static_cast<vid_t>(v), seen) !=
          kInvalidVertex)
        mine = std::min(mine, static_cast<vid_t>(v));
    }
    lowest.fold(mine, std::ranges::min);
  }
  const vid_t bad = lowest.get();
  if (bad == nets) return std::nullopt;

  MarkerSet seen(capacity);
  const vid_t a = first_repeat(view, c, bad, seen);
  return ColoringViolation{
      a, first_with_color(view, c, bad, detail::load_color(c, a)), bad,
      clash};
}

}  // namespace

std::string ColoringViolation::to_string() const {
  std::ostringstream os;
  os << what;
  if (a != kInvalidVertex) os << " vertex=" << a;
  if (b != kInvalidVertex) os << " partner=" << b;
  if (via != kInvalidVertex) os << " via=" << via;
  return os.str();
}

std::optional<ColoringViolation> check_bgpc(
    const BipartiteGraph& g, const std::vector<color_t>& colors) {
  return check_nets(BipartiteView{g}, colors,
                    "two vertices of one net share a color", max_threads());
}

std::optional<ColoringViolation> check_d2gc(
    const Graph& g, const std::vector<color_t>& colors) {
  // Every distance-<=2 pair shares a closed neighborhood N[v]; checking
  // distinctness inside each N[v] covers all pairs.
  return check_nets(ClosedView{g}, colors,
                    "distance-<=2 vertices share a color", max_threads());
}

bool is_valid_bgpc(const BipartiteGraph& g,
                   const std::vector<color_t>& colors) {
  return !check_bgpc(g, colors).has_value();
}

bool is_valid_d2gc(const Graph& g, const std::vector<color_t>& colors) {
  return !check_d2gc(g, colors).has_value();
}

}  // namespace gcol
