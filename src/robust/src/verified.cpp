#include "greedcolor/robust/verified.hpp"

#include <stdexcept>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/parallel.hpp"

namespace gcol {

namespace {

/// The engines report caller mistakes as std::invalid_argument; the
/// robust contract promises typed errors, so translate at the boundary.
template <typename Fn>
auto translate_invalid_argument(Fn&& fn) {
  try {
    return fn();
  } catch (const std::invalid_argument& e) {
    throw Error(ErrorCode::kInvalidArgument, e.what());
  }
}

/// Checks on the engine's team size (options.num_threads), each check
/// inside a `verify.check` span, and repairs only when the check fails.
template <typename Graph, typename Checker, typename Repairer>
void verify_or_repair(const Graph& g, std::vector<color_t>& colors,
                      Checker check, Repairer repair,
                      const ColoringOptions& options, bool& degraded,
                      vid_t& repaired) {
  obs::Tracer* const tracer = options.tracer;
  const ThreadCountScope team(options.num_threads);
  const auto checked = [&] {
    GCOL_TRACE_BEGIN(tracer, "verify.check",
                     static_cast<std::uint64_t>(colors.size()));
    auto violation = check(g, colors);
    GCOL_TRACE_END(tracer, "verify.check");
    return violation;
  };
  if (!checked().has_value()) return;
  GCOL_TRACE_BEGIN(tracer, "robust.repair",
                   static_cast<std::uint64_t>(colors.size()));
  const RepairStats stats = repair(g, colors);
  GCOL_TRACE_END(tracer, "robust.repair");
  GCOL_TRACE_EVENT(tracer, "robust.repaired",
                   static_cast<std::uint64_t>(stats.repaired));
  degraded = true;
  repaired = stats.repaired;
  if (const auto violation = checked())
    raise(ErrorCode::kInternalInvariant, "verify-and-repair",
          "coloring still invalid after repair: " + violation->to_string());
}

}  // namespace

ColoringResult color_bgpc_verified(const BipartiteGraph& g,
                                   const ColoringOptions& options,
                                   const std::vector<vid_t>& order) {
  ColoringResult result = translate_invalid_argument(
      [&] { return color_bgpc(g, options, order); });
  verify_or_repair(g, result.colors, check_bgpc, repair_bgpc,
                   options, result.degraded, result.repaired_vertices);
  if (result.repaired_vertices > 0)
    result.num_colors = count_colors(result.colors);
  return result;
}

ColoringResult color_d2gc_verified(const Graph& g,
                                   const ColoringOptions& options,
                                   const std::vector<vid_t>& order) {
  ColoringResult result = translate_invalid_argument(
      [&] { return color_d2gc(g, options, order); });
  verify_or_repair(g, result.colors, check_d2gc, repair_d2gc,
                   options, result.degraded, result.repaired_vertices);
  if (result.repaired_vertices > 0)
    result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol
