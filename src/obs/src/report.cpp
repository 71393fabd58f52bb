#include "greedcolor/obs/report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "greedcolor/core/result.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/graph/graph_stats.hpp"
#include "greedcolor/obs/metrics.hpp"
#include "greedcolor/obs/trace.hpp"

namespace gcol::obs {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over 64-bit words rather than bytes: one xor-multiply per CSR
// entry instead of eight dependent ones.
void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

template <typename T>
void fnv_vec(std::uint64_t& h, const std::vector<T>& vec) {
  fnv_u64(h, vec.size());
  for (const T& v : vec) fnv_u64(h, static_cast<std::uint64_t>(v));
}

std::string hex16(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a64w:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Json degradation_object(const ColoringResult& r) {
  Json d = Json::object();
  d.set("degraded", r.degraded);
  d.set("sequential_fallback", r.sequential_fallback);
  d.set("rounds_capped", r.rounds_capped);
  d.set("deadline_hit", r.deadline_hit);
  d.set("faults_injected", static_cast<std::uint64_t>(r.faults_injected));
  d.set("repaired_vertices",
        static_cast<std::uint64_t>(r.repaired_vertices));
  return d;
}

Json kernel_object(const KernelCounters& c) {
  Json k = Json::object();
  k.set("edges_visited", c.edges_visited);
  k.set("color_probes", c.color_probes);
  k.set("conflicts", c.conflicts);
  k.set("colored", c.colored);
  return k;
}

}  // namespace

std::uint64_t fingerprint(const BipartiteGraph& g) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, static_cast<std::uint64_t>(g.num_vertices()));
  fnv_u64(h, static_cast<std::uint64_t>(g.num_nets()));
  fnv_vec(h, g.vptr());
  fnv_vec(h, g.vadj());
  fnv_vec(h, g.nptr());
  fnv_vec(h, g.nadj());
  return h;
}

std::uint64_t fingerprint(const Graph& g) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, static_cast<std::uint64_t>(g.num_vertices()));
  fnv_vec(h, g.ptr());
  fnv_vec(h, g.adj());
  return h;
}

std::string fingerprint_string(const BipartiteGraph& g) {
  return hex16(fingerprint(g));
}

std::string fingerprint_string(const Graph& g) {
  return hex16(fingerprint(g));
}

RunReport::RunReport(std::string tool) {
  root_.set("schema", kSchema);
  root_.set("tool", std::move(tool));
}

Json& RunReport::section(const std::string& key) {
  if (Json* existing = const_cast<Json*>(root_.find(key))) return *existing;
  return root_.set(key, Json::object());
}

void RunReport::set_option(const std::string& key, Json value) {
  section("options").set(key, std::move(value));
}

void RunReport::set_graph(const BipartiteGraph& g) {
  Json& sec = section("graph");
  sec.set("fingerprint", fingerprint_string(g));
  sec.set("vertices", static_cast<std::uint64_t>(g.num_vertices()));
  sec.set("nets", static_cast<std::uint64_t>(g.num_nets()));
  sec.set("edges", static_cast<std::uint64_t>(g.num_edges()));
  sec.set("signature", signature(g));
}

void RunReport::set_graph(const Graph& g) {
  Json& sec = section("graph");
  sec.set("fingerprint", fingerprint_string(g));
  sec.set("vertices", static_cast<std::uint64_t>(g.num_vertices()));
  sec.set("signature", signature(g));
}

void RunReport::set_coloring(const ColoringResult& r) {
  Json& totals = section("totals");
  totals.set("wall_ms", r.total_seconds * 1000.0);
  totals.set("colors", static_cast<std::uint64_t>(r.num_colors));
  totals.set("rounds", static_cast<std::uint64_t>(r.rounds));
  root_.set("degradation", degradation_object(r));
  if (!r.iterations.empty()) set_rounds(r.iterations);
}

void RunReport::set_rounds(const std::vector<IterationStats>& iterations) {
  Json rounds = Json::array();
  for (const IterationStats& it : iterations) {
    Json row = Json::object();
    row.set("round", static_cast<std::uint64_t>(it.round));
    row.set("queue", static_cast<std::uint64_t>(it.queue_size));
    row.set("conflicts", static_cast<std::uint64_t>(it.conflicts));
    row.set("color_ms", it.color_seconds * 1000.0);
    row.set("conflict_ms", it.conflict_seconds * 1000.0);
    row.set("net_based_coloring", it.net_based_coloring);
    row.set("net_based_conflict", it.net_based_conflict);
    row.set("color", kernel_object(it.color_counters));
    row.set("conflict", kernel_object(it.conflict_counters));
    rounds.push_back(std::move(row));
  }
  root_.set("rounds", std::move(rounds));
}

void RunReport::set_metrics(const MetricsRegistry& m) {
  Json& sec = section("metrics");
  for (const auto& [name, value] : m.counters()) sec.set(name, value);
}

void RunReport::set_tracer(const Tracer& t, const std::string& trace_path) {
  Json& sec = section("trace");
  sec.set("events", t.recorded());
  sec.set("dropped", t.dropped());
  sec.set("threads", static_cast<std::uint64_t>(t.threads()));
  if (!trace_path.empty()) sec.set("file", trace_path);
}

void RunReport::write(std::ostream& os) const {
  root_.dump(os);
  os << '\n';
}

void RunReport::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("gcol-report: cannot open report output: " +
                             path);
  }
  write(os);
}

}  // namespace gcol::obs
