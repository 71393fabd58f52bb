// RunReport: the machine-readable run document (schema gcol-report-v1)
// and the graph fingerprint helper.
//
// One schema for everything that reports a run: color_tool --report
// and bench/e2e. A document always carries
//   schema   "gcol-report-v1"
//   tool     producing binary ("color_tool", "bench_e2e")
// and any of the optional sections the producer filled in:
//   options      flat object of the knobs that shaped the run
//   graph        fingerprint + dims + one-line structural signature
//   totals       wall_ms / colors / rounds
//   rounds       per-round IterationStats (the Figure 1 breakdown)
//   degradation  watchdog / fallback / repair flags and counts
//   metrics      the full MetricsRegistry (flat name -> uint64)
//   trace        recorded/dropped event accounting (+ trace file path)
//   bench        harness-specific payload (curves, captures, ...)
// tools/check_trace.py --report validates the envelope; consumers key
// on `schema` + section presence, never on the producing tool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "greedcolor/obs/json.hpp"

namespace gcol {

class BipartiteGraph;    // greedcolor/graph/bipartite.hpp
class Graph;             // greedcolor/graph/csr.hpp
struct ColoringResult;   // greedcolor/core/result.hpp
struct IterationStats;   // greedcolor/core/result.hpp

namespace obs {

class MetricsRegistry;
class Tracer;

/// FNV-1a over the dimensions and CSR arrays, one 64-bit word per step
/// (not byte-wise FNV-1a, hence the "fnv1a64w:" prefix): a stable
/// content hash for "same graph" checks across runs (and the cache key
/// the service front-end will want). Not cryptographic.
[[nodiscard]] std::uint64_t fingerprint(const BipartiteGraph& g);
[[nodiscard]] std::uint64_t fingerprint(const Graph& g);
/// "fnv1a64w:<16 hex digits>" as written into reports.
[[nodiscard]] std::string fingerprint_string(const BipartiteGraph& g);
[[nodiscard]] std::string fingerprint_string(const Graph& g);

class RunReport {
 public:
  static constexpr const char* kSchema = "gcol-report-v1";

  explicit RunReport(std::string tool);

  /// Create-or-get a top-level object section ("options", "bench", ...).
  Json& section(const std::string& key);
  /// Convenience for the options section.
  void set_option(const std::string& key, Json value);

  void set_graph(const BipartiteGraph& g);
  void set_graph(const Graph& g);

  /// Shared-memory run: totals + degradation (+ rounds when the run
  /// collected iteration stats).
  void set_coloring(const ColoringResult& r);
  /// Per-round breakdown only (used when the result was not kept).
  void set_rounds(const std::vector<IterationStats>& iterations);

  void set_metrics(const MetricsRegistry& m);

  /// Trace accounting; `trace_path` (when non-empty) records where the
  /// Chrome trace for this run was written.
  void set_tracer(const Tracer& t, const std::string& trace_path = "");

  [[nodiscard]] const Json& root() const { return root_; }
  [[nodiscard]] std::string to_json() const { return root_.dump(); }
  void write(std::ostream& os) const;
  void write_file(const std::string& path) const;

 private:
  Json root_ = Json::object();
};

}  // namespace obs
}  // namespace gcol
