// Coloring validity checkers used by tests, examples, and (optionally)
// the bench harnesses.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

/// Description of the first violation found, for test diagnostics.
struct ColoringViolation {
  vid_t a = kInvalidVertex;  ///< first offending vertex
  vid_t b = kInvalidVertex;  ///< conflicting partner (or kInvalidVertex)
  vid_t via = kInvalidVertex;  ///< shared net / middle vertex, if any
  std::string what;

  [[nodiscard]] std::string to_string() const;
};

/// BGPC validity: every V_A vertex colored (>= 0) and no two vertices
/// sharing a net have equal colors. Runs net-side in O(|E|) with one
/// marker pass per net, on the calling thread's OpenMP team
/// (omp_get_max_threads()). The violation reported is the first one in
/// vertex, then net order, whatever the team size, and the working
/// memory is O(|V|) per thread whatever the color values.
[[nodiscard]] std::optional<ColoringViolation> check_bgpc(
    const BipartiteGraph& g, const std::vector<color_t>& colors);

/// D2GC validity: every vertex colored and all distance-<=2 pairs
/// differently colored (checked per closed neighborhood, O(|E|)). Same
/// team, violation order and memory bound as check_bgpc.
[[nodiscard]] std::optional<ColoringViolation> check_d2gc(
    const Graph& g, const std::vector<color_t>& colors);

/// Convenience wrappers.
[[nodiscard]] bool is_valid_bgpc(const BipartiteGraph& g,
                                 const std::vector<color_t>& colors);
[[nodiscard]] bool is_valid_d2gc(const Graph& g,
                                 const std::vector<color_t>& colors);

}  // namespace gcol
