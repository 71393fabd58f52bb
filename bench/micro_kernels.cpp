// Kernel micro-benchmark: the full BGPC/D2GC engines over the Table II
// stand-in registry, recording wall time plus the machine-independent
// work counters per (kind, dataset, algo, threads) row.
//
// Every timing is a median of `reps` after one untimed warmup run —
// single-shot numbers on an oversubscribed box are noise, and the
// committed trajectory gates on these values.
//
// With --json PATH the harness writes a gcol-bench-kernels-v3 document
// (the committed BENCH_kernels.json perf trajectory) that
// tools/bench_gate.py checks.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/env.hpp"
#include "greedcolor/util/table.hpp"

namespace {

using namespace gcol;

struct KernelRecord {
  std::string kind;  ///< "bgpc" | "d2gc"
  std::string dataset;
  std::string algo;
  int threads = 1;
  double wall_ms = 0.0;  ///< median over reps, after one warmup run
  color_t colors = 0;
  int rounds = 0;
  KernelCounters color_counters;
  KernelCounters conflict_counters;
  bool valid = true;

  [[nodiscard]] std::uint64_t probes() const {
    return color_counters.color_probes + conflict_counters.color_probes;
  }
  [[nodiscard]] std::uint64_t edges() const {
    return color_counters.edges_visited + conflict_counters.edges_visited;
  }
};

/// Median of a sample (best-of hides systematic slowness, means are
/// dragged by scheduler stalls).
double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

// One overload pair per problem, so one row runner serves both.
ColoringResult run_engine(const BipartiteGraph& g, const ColoringOptions& o) {
  return color_bgpc(g, o);
}
ColoringResult run_engine(const Graph& g, const ColoringOptions& o) {
  return color_d2gc(g, o);
}
bool is_valid(const BipartiteGraph& g, const std::vector<color_t>& c) {
  return is_valid_bgpc(g, c);
}
bool is_valid(const Graph& g, const std::vector<color_t>& c) {
  return is_valid_d2gc(g, c);
}

/// One row: a warmup run, then the median engine wall time of `reps`
/// runs, with the last run's counters.
template <class G>
KernelRecord run_row(const G& g, const char* kind, const std::string& dataset,
                     const std::string& algo, const ColoringOptions& opt,
                     int reps) {
  KernelRecord rec;
  rec.kind = kind;
  rec.dataset = dataset;
  rec.algo = algo;
  rec.threads = opt.num_threads;
  std::vector<double> times;
  for (int rep = 0; rep <= std::max(reps, 1); ++rep) {
    const ColoringResult r = run_engine(g, opt);
    if (rep == 0) continue;  // warmup: graph + color pages now hot
    times.push_back(r.total_seconds * 1e3);
    rec.colors = r.num_colors;
    rec.rounds = r.rounds;
    rec.color_counters = r.total_color_counters();
    rec.conflict_counters = r.total_conflict_counters();
    if (!is_valid(g, r.colors)) rec.valid = false;
  }
  rec.wall_ms = median(std::move(times));
  return rec;
}

std::vector<KernelRecord> run_kernels(bool smoke, int threads, int reps) {
  const std::vector<std::string> bgpc_algos = {"V-V", "V-N2", "N1-N2"};
  const std::vector<std::string> d2gc_algos = {"V-V-64D", "N1-N2"};
  std::vector<std::string> bgpc_sets = dataset_names(false);
  std::vector<std::string> d2gc_sets = dataset_names(true);
  if (smoke) {
    // Two structurally distinct stand-ins keep the smoke run short
    // while still exercising mesh- and overlap-style rows.
    bgpc_sets = {"bone_s", "copapers_s"};
    if (d2gc_sets.size() > 1) d2gc_sets.resize(1);
  }

  std::vector<KernelRecord> records;
  for (const auto& name : bgpc_sets) {
    const BipartiteGraph g = load_bipartite(name);
    for (const auto& algo : bgpc_algos) {
      ColoringOptions opt = bgpc_preset(algo);
      opt.num_threads = threads;
      records.push_back(run_row(g, "bgpc", name, algo, opt, reps));
    }
  }
  for (const auto& name : d2gc_sets) {
    const Graph g = load_graph(name);
    for (const auto& algo : d2gc_algos) {
      ColoringOptions opt = d2gc_preset(algo);
      opt.num_threads = threads;
      records.push_back(run_row(g, "d2gc", name, algo, opt, reps));
    }
  }
  return records;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s)
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  return out;
}

void write_json(const std::string& path,
                const std::vector<KernelRecord>& records, bool smoke,
                int threads, int reps) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "{\n  \"schema\": \"gcol-bench-kernels-v3\",\n";
  os << "  \"config\": {\"smoke\": " << (smoke ? "true" : "false")
     << ", \"threads\": " << threads << ", \"reps\": " << reps
     << ", \"aggregation\": \"median\"},\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    os << "    {\"kind\": \"" << r.kind << "\", \"dataset\": \""
       << json_escape(r.dataset) << "\", \"algo\": \""
       << json_escape(r.algo) << "\", \"threads\": " << r.threads
       << ", \"wall_ms\": " << r.wall_ms << ", \"colors\": " << r.colors
       << ", \"rounds\": " << r.rounds
       << ", \"edges_visited\": " << r.edges()
       << ", \"color_probes\": " << r.probes()
       << ", \"conflicts\": " << r.conflict_counters.conflicts
       << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::ofstream out(path);
  out << os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const bool smoke = args.has("smoke");
  const int threads = static_cast<int>(args.get_int("threads", 4));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string json_path = args.get_string("json", "");

  std::cout << "=== kernel micro-benchmark ===\n"
            << env_banner() << "\n"
            << (smoke ? "smoke" : "full") << " run, threads=" << threads
            << " reps=" << reps << " (median, 1 warmup)\n\n";

  const auto records = run_kernels(smoke, threads, reps);
  TextTable tb;
  tb.set_header({"kernel", "dataset", "algo", "wall ms", "colors", "probes",
                 "edges", "ok"},
                {TextTable::Align::kLeft});
  bool all_valid = true;
  for (const auto& r : records) {
    all_valid = all_valid && r.valid;
    tb.add_row({r.kind, r.dataset, r.algo, TextTable::fmt(r.wall_ms),
                TextTable::fmt(static_cast<std::int64_t>(r.colors)),
                TextTable::fmt_sep(static_cast<std::int64_t>(r.probes())),
                TextTable::fmt_sep(static_cast<std::int64_t>(r.edges())),
                r.valid ? "yes" : "NO"});
  }
  std::cout << tb.to_string();

  if (!json_path.empty()) {
    write_json(json_path, records, smoke, threads, reps);
    std::cout << "json written to " << json_path << "\n";
  }

  if (!all_valid) {
    std::cerr << "FAIL: at least one coloring was invalid\n";
    return 1;
  }
  return 0;
}
