#include "greedcolor/obs/metrics.hpp"

#include "greedcolor/analyze/audit.hpp"
#include "greedcolor/analyze/contract.hpp"
#include "greedcolor/core/result.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/util/counters.hpp"

namespace gcol::obs {

namespace {

std::string joined(std::string_view prefix, std::string_view leaf) {
  std::string name;
  name.reserve(prefix.size() + 1 + leaf.size());
  name.append(prefix);
  name.push_back('.');
  name.append(leaf);
  return name;
}

}  // namespace

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set(std::string_view name, std::uint64_t value) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

bool MetricsRegistry::has(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

std::uint64_t MetricsRegistry::value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::record_kernel(std::string_view prefix,
                                    const KernelCounters& c) {
  add(joined(prefix, "edges_visited"), c.edges_visited);
  add(joined(prefix, "color_probes"), c.color_probes);
  add(joined(prefix, "conflicts"), c.conflicts);
  add(joined(prefix, "colored"), c.colored);
  if (c.max_color != kNoColor) {
    const auto mc = static_cast<std::uint64_t>(c.max_color);
    const std::string name = joined(prefix, "max_color");
    if (!has(name) || value(name) < mc) set(name, mc);
  }
}

void MetricsRegistry::record_result(const ColoringResult& r) {
  set("core.rounds", static_cast<std::uint64_t>(r.rounds));
  set("core.colors", static_cast<std::uint64_t>(r.num_colors));
  set_flag("core.degraded", r.degraded);
  set_flag("core.sequential_fallback", r.sequential_fallback);
  set_flag("core.rounds_capped", r.rounds_capped);
  set_flag("core.deadline_hit", r.deadline_hit);
  set("core.faults_injected", static_cast<std::uint64_t>(r.faults_injected));
  set("core.repaired_vertices",
      static_cast<std::uint64_t>(r.repaired_vertices));
  record_kernel("core.color", r.total_color_counters());
  record_kernel("core.conflict", r.total_conflict_counters());
}

void MetricsRegistry::record_audit(const audit::AuditReport& r) {
  set("audit.rounds_audited", static_cast<std::uint64_t>(r.rounds_audited));
  set("audit.escaped_conflicts", r.escaped_conflicts);
  set("audit.reads_recorded", r.reads_recorded);
  set("audit.writes_recorded", r.writes_recorded);
  set("audit.writes_overturned", r.writes_overturned);
  set("audit.ledger_growths", r.ledger_growths);
  set("audit.violations", r.violations.size());
}

void MetricsRegistry::record_contracts() {
  set("contract.checks_evaluated", contract::checks_evaluated());
}

void MetricsRegistry::record_tracer(const Tracer& t) {
  set("trace.events", t.recorded());
  set("trace.dropped", t.dropped());
  set("trace.threads", static_cast<std::uint64_t>(t.threads()));
}

}  // namespace gcol::obs
