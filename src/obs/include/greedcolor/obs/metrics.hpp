// MetricsRegistry: one named-counter surface over the repo's scattered
// telemetry structs (the metrics half of src/obs).
//
// KernelCounters (util), AuditReport (analyze), the contract check
// counter, and the tracer's own drop accounting each grew their own
// aggregation path; every consumer (color_tool text output, the bench
// JSON writers) re-flattened them by hand. The registry is the single
// flattening: record_* adapters map every struct field to a dotted
// lower-case name (`core.color.edges_visited`, `audit.escaped_conflicts`,
// `trace.dropped` — full convention in docs/OBSERVABILITY.md), and the
// RunReport emits the whole registry under a stable schema so nothing
// is print-path-only.
//
// Values are unsigned 64-bit monotonic counters (booleans as 0/1).
// Durations are deliberately NOT metrics — wall times belong to the
// trace spans and the per-round report sections, where they keep their
// double precision.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace gcol {

struct KernelCounters;   // greedcolor/util/counters.hpp
struct ColoringResult;   // greedcolor/core/result.hpp

namespace audit {
struct AuditReport;      // greedcolor/analyze/audit.hpp
}

namespace obs {

class Tracer;

class MetricsRegistry {
 public:
  /// Add `delta` to `name` (creating it at 0).
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Set `name` to `value` (creating it).
  void set(std::string_view name, std::uint64_t value);
  /// Booleans are encoded as 0/1 so the schema stays one value type.
  void set_flag(std::string_view name, bool value) {
    set(name, value ? 1 : 0);
  }

  [[nodiscard]] bool has(std::string_view name) const;
  /// 0 when absent — counters that never fired read as zero.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  counters() const {
    return counters_;
  }

  [[nodiscard]] std::size_t size() const { return counters_.size(); }
  [[nodiscard]] bool empty() const { return counters_.empty(); }

  // ---- adapters: one per telemetry struct, names under one prefix ----

  /// KernelCounters under `prefix` (e.g. "core.color"): .edges_visited,
  /// .color_probes, .conflicts, .colored, .max_color (skipped when the
  /// kernel assigned nothing or GCOL_COUNTERS is off). Adds, so
  /// per-round records accumulate.
  void record_kernel(std::string_view prefix, const KernelCounters& c);

  /// Shared-memory run: core.rounds/colors + degradation flags +
  /// kernel totals under core.color / core.conflict.
  void record_result(const ColoringResult& r);

  /// audit.* counters from a speculative-race audit.
  void record_audit(const audit::AuditReport& r);

  /// contract.checks_evaluated (0 in unchecked builds).
  void record_contracts();

  /// trace.events / trace.dropped / trace.threads.
  void record_tracer(const Tracer& t);

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

}  // namespace obs
}  // namespace gcol
