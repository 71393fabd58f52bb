// Ablation: distance-k coloring for k = 1..4 — the paper's Section VIII
// future-work direction ("the optimistic techniques ... can be extended
// to the distance-k graph coloring problem"). Sequential BFS-ball
// greedy vs the parallel engine running BGPC on ball nets.
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/dkgc.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/graph/graph_stats.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/env.hpp"
#include "greedcolor/util/table.hpp"
#include "greedcolor/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  const int threads = static_cast<int>(args.get_int("threads", 16));
  const int kmax = static_cast<int>(args.get_int("kmax", 4));

  std::cout << "=== Ablation: distance-k coloring (paper SVIII) ===\n"
            << env_banner() << "\n\n";

  struct Instance {
    std::string name;
    Graph graph;
  };
  std::vector<Instance> instances;
  instances.push_back(
      {"geometric-12k", build_graph(gen_random_geometric(
                            static_cast<vid_t>(args.get_int("nodes", 12000)),
                            0.012, 3))});
  instances.push_back({"mesh-90x90", build_graph(gen_mesh2d(90, 90, 1))});

  for (const auto& inst : instances) {
    std::cout << "--- " << inst.name << ": " << signature(inst.graph)
              << " ---\n";
    TextTable t;
    t.set_header({"k", "seq colors", "seq ms", "par colors", "par ms",
                  "par rounds", "valid"});
    for (int k = 1; k <= kmax; ++k) {
      WallTimer timer;
      const auto seq = color_dkgc_sequential(inst.graph, k);
      const double seq_ms = timer.milliseconds();

      ColoringOptions opt = bgpc_preset("N1-N2");
      opt.num_threads = threads;
      timer.reset();
      const auto par = color_dkgc(inst.graph, k, opt);
      const double par_ms = timer.milliseconds();
      const bool ok = is_valid_dkgc(inst.graph, k, par.colors) &&
                      is_valid_dkgc(inst.graph, k, seq.colors);
      t.add_row({TextTable::fmt(static_cast<std::int64_t>(k)),
                 TextTable::fmt_sep(seq.num_colors), TextTable::fmt(seq_ms),
                 TextTable::fmt_sep(par.num_colors), TextTable::fmt(par_ms),
                 TextTable::fmt(static_cast<std::int64_t>(par.rounds)),
                 ok ? "yes" : "NO"});
    }
    std::cout << t.to_string() << "\n";
  }
  std::cout << "expected shape: colors and cost grow steeply with k "
               "(ball sizes explode);\nthe parallel engine over-colors "
               "odd k (it enforces distance k+1) but stays valid.\n"
               "NOTE: the parallel column includes the one-off ball-net "
               "construction, which\ndominates for large k.\n";
  return 0;
}
