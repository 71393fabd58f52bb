// Shared machinery for the table/figure reproduction harnesses.
//
// Every harness prints (a) an environment banner, (b) the measured
// table in the paper's layout, and (c) where relevant, the
// machine-independent work-counter view that reproduces the paper's
// relative results on hosts without 16 physical cores.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/options.hpp"
#include "greedcolor/graph/bipartite.hpp"
#include "greedcolor/graph/csr.hpp"
#include "greedcolor/order/ordering.hpp"
#include "greedcolor/util/argparse.hpp"

namespace gcol::bench {

struct SweepRecord {
  std::string dataset;
  std::string algo;
  int threads = 1;
  double seconds = 0.0;       ///< best-of-reps wall time
  color_t colors = 0;
  int rounds = 0;
  std::uint64_t work = 0;     ///< edges visited + color probes, all phases
  bool valid = true;
};

struct SweepConfig {
  std::vector<std::string> datasets;
  std::vector<std::string> algos;
  std::vector<int> threads = {2, 4, 8, 16};
  OrderingKind order = OrderingKind::kNatural;
  BalancePolicy balance = BalancePolicy::kNone;
  int reps = 1;       ///< wall time is the minimum over reps
  bool verify = true; ///< run the O(|E|) checker on every coloring
};

/// One parallel BGPC run (best of `reps`).
SweepRecord run_bgpc_once(const BipartiteGraph& g, const std::string& dataset,
                          const ColoringOptions& options,
                          const std::vector<vid_t>& order, int reps,
                          bool verify);

/// Sequential baseline (V-V with one thread is identical; we use the
/// dedicated sequential path, as the paper's Table II does).
SweepRecord run_bgpc_sequential(const BipartiteGraph& g,
                                const std::string& dataset,
                                const std::vector<vid_t>& order, int reps);

/// Full BGPC sweep over datasets x algos x threads. Graphs and
/// orderings are constructed once per dataset.
std::vector<SweepRecord> run_bgpc_sweep(const SweepConfig& config);

/// D2GC analogues (datasets restricted to the symmetric subset by the
/// caller).
SweepRecord run_d2gc_once(const Graph& g, const std::string& dataset,
                          const ColoringOptions& options,
                          const std::vector<vid_t>& order, int reps,
                          bool verify);
SweepRecord run_d2gc_sequential(const Graph& g, const std::string& dataset,
                                const std::vector<vid_t>& order, int reps);
std::vector<SweepRecord> run_d2gc_sweep(const SweepConfig& config);

/// Geometric mean (the aggregation used by Tables III-V).
double geomean(const std::vector<double>& values);

/// Look up a record; throws if absent.
const SweepRecord& find(const std::vector<SweepRecord>& records,
                        const std::string& dataset, const std::string& algo,
                        int threads);

/// Standard harness intro: env banner + dataset signatures + config.
void print_banner(const std::string& title, const SweepConfig& config);

/// Tables III / IV: geometric-mean speedups over the sequential V-V
/// baseline per thread count, speedup over parallel V-V at the largest
/// thread count, normalized color counts, and the machine-independent
/// work ratio vs. V-V. The ordering inside `config` selects between the
/// natural-order (Table III) and smallest-last (Table IV) variants.
void print_bgpc_speedup_table(const SweepConfig& config,
                              const std::string& title);

}  // namespace gcol::bench
