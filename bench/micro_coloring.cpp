// Micro-benchmarks for the coloring kernels themselves: sequential
// baseline, each parallel preset at one thread (pure work comparison),
// balancing overhead, verification, and recoloring.
//
// Every kernel benchmark runs a 100 ms warmup and reports the
// median/mean/stddev of 3 repetitions — single-shot numbers on a
// shared box are dominated by scheduler noise.
//
// With --report=FILE the collected rows are also written as a
// gcol-report-v1 document (timings under the "bench" section), the same
// envelope color_tool --report emits, so
// tools/bench_gate.py and tools/check_trace.py parse one format.
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/obs/json.hpp"
#include "greedcolor/obs/report.hpp"

namespace {

using namespace gcol;

const BipartiteGraph& bench_graph() {
  static const BipartiteGraph g =
      build_bipartite(gen_clique_union(8000, 2800, 2, 120, 1.7, 77));
  return g;
}

const Graph& bench_unigraph() {
  static const Graph g = build_graph(gen_mesh2d(60, 60, 1));
  return g;
}

// Shared stability settings: warmup + median-of-3 (see file comment).
#define GCOL_BENCH_STABLE \
  ->MinWarmUpTime(0.1)->Repetitions(3)->ReportAggregatesOnly(true)

void BM_Bgpc_Sequential(benchmark::State& state) {
  const auto& g = bench_graph();
  for (auto _ : state) {
    auto r = color_bgpc_sequential(g);
    benchmark::DoNotOptimize(r.num_colors);
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_Bgpc_Sequential) GCOL_BENCH_STABLE;

void BM_Bgpc_Preset(benchmark::State& state, const char* name, int threads) {
  const auto& g = bench_graph();
  ColoringOptions opt = bgpc_preset(name);
  opt.num_threads = threads;
  opt.collect_iteration_stats = false;
  for (auto _ : state) {
    auto r = color_bgpc(g, opt);
    benchmark::DoNotOptimize(r.num_colors);
  }
}
BENCHMARK_CAPTURE(BM_Bgpc_Preset, VV_t1, "V-V", 1) GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Preset, VV64D_t1, "V-V-64D", 1) GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Preset, VN2_t1, "V-N2", 1) GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Preset, N1N2_t1, "N1-N2", 1) GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Preset, N2N2_t1, "N2-N2", 1) GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Preset, VN2_t4, "V-N2", 4) GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Preset, N1N2_t4, "N1-N2", 4) GCOL_BENCH_STABLE;

void BM_Bgpc_Balance(benchmark::State& state, BalancePolicy policy) {
  const auto& g = bench_graph();
  ColoringOptions opt = bgpc_preset("V-N2");
  opt.balance = policy;
  opt.num_threads = 1;
  opt.collect_iteration_stats = false;
  for (auto _ : state) {
    auto r = color_bgpc(g, opt);
    benchmark::DoNotOptimize(r.num_colors);
  }
}
BENCHMARK_CAPTURE(BM_Bgpc_Balance, U, BalancePolicy::kNone)
GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Balance, B1, BalancePolicy::kB1)
GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_Bgpc_Balance, B2, BalancePolicy::kB2)
GCOL_BENCH_STABLE;

void BM_D2gc_Preset(benchmark::State& state, const char* name) {
  const auto& g = bench_unigraph();
  ColoringOptions opt = d2gc_preset(name);
  opt.num_threads = 1;
  opt.collect_iteration_stats = false;
  for (auto _ : state) {
    auto r = color_d2gc(g, opt);
    benchmark::DoNotOptimize(r.num_colors);
  }
}
BENCHMARK_CAPTURE(BM_D2gc_Preset, VV64D, "V-V-64D") GCOL_BENCH_STABLE;
BENCHMARK_CAPTURE(BM_D2gc_Preset, N1N2, "N1-N2") GCOL_BENCH_STABLE;

void BM_Verify_Bgpc(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto r = color_bgpc_sequential(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_valid_bgpc(g, r.colors));
  }
}
BENCHMARK(BM_Verify_Bgpc);

void BM_Recolor_Bgpc(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto base = color_bgpc_sequential(g);
  for (auto _ : state) {
    auto colors = base.colors;
    benchmark::DoNotOptimize(recolor_bgpc(g, colors));
  }
}
BENCHMARK(BM_Recolor_Bgpc);

/// Console output as usual, plus every reported row collected for the
/// gcol-report-v1 document (--report=FILE).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    std::string aggregate;  ///< "" for plain rows, else mean/median/...
    std::int64_t iterations = 0;
    double real_time = 0.0;
    double cpu_time = 0.0;
    std::string unit;
    bool error = false;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      Row row;
      row.name = run.benchmark_name();
      row.aggregate = run.aggregate_name;
      row.iterations = static_cast<std::int64_t>(run.iterations);
      row.real_time = run.GetAdjustedRealTime();
      row.cpu_time = run.GetAdjustedCPUTime();
      row.unit = benchmark::GetTimeUnitString(run.time_unit);
      row.error = run.error_occurred;
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Row> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --report=FILE before benchmark::Initialize sees (and rejects)
  // it; everything else is standard Google Benchmark flag handling.
  std::string report_path;
  std::vector<char*> argv_rest;
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kFlag = "--report=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
      report_path = argv[i] + std::strlen(kFlag);
    else
      argv_rest.push_back(argv[i]);
  }
  int argc_rest = static_cast<int>(argv_rest.size());
  argv_rest.push_back(nullptr);
  benchmark::Initialize(&argc_rest, argv_rest.data());
  if (benchmark::ReportUnrecognizedArguments(argc_rest, argv_rest.data()))
    return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!report_path.empty()) {
    gcol::obs::RunReport rep("micro_coloring");
    gcol::obs::Json& bench = rep.section("bench");
    bench.set("kind", "micro_coloring");
    gcol::obs::Json rows = gcol::obs::Json::array();
    for (const auto& row : reporter.rows) {
      gcol::obs::Json jr = gcol::obs::Json::object();
      jr.set("name", row.name);
      if (!row.aggregate.empty()) jr.set("aggregate", row.aggregate);
      jr.set("iterations", row.iterations);
      jr.set("real_time", row.real_time);
      jr.set("cpu_time", row.cpu_time);
      jr.set("unit", row.unit);
      if (row.error) jr.set("error", true);
      rows.push_back(std::move(jr));
    }
    bench.set("rows", std::move(rows));
    rep.write_file(report_path);
    std::cout << "report written to " << report_path << "\n";
  }
  return 0;
}
