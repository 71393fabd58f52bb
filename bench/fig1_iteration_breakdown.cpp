// Figure 1 reproduction: per-iteration coloring and conflict-removal
// times for six algorithms on the coPapersDBLP stand-in, 16 threads.
//
// The paper's observations this harness re-checks:
//   1. most time is spent in the coloring phases,
//   2. most time is spent in the first iterations,
//   3. net-based conflict removal at EVERY iteration can hurt (V-Ninf),
//   4. net-based coloring helps in the first iteration (N1-N2),
//   5. a second net-based coloring round adds little (N2-N2).
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/csv.hpp"
#include "greedcolor/util/table.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  const std::string dataset = args.get_string("dataset", "copapers_s");
  const int threads = static_cast<int>(args.get_int("threads", 16));
  const int max_rounds_shown = static_cast<int>(args.get_int("rounds", 5));
  const std::string csv_path =
      args.get_string("csv", "fig1_iteration_breakdown.csv");

  bench::SweepConfig config;
  config.datasets = {dataset};
  config.threads = {threads};
  bench::print_banner("Figure 1: per-iteration phase times", config);

  const std::vector<std::string> algos = {"V-V-64D", "V-Ninf", "V-N1",
                                          "V-N2",    "N1-N2",  "N2-N2"};
  const BipartiteGraph g = load_bipartite(dataset);

  CsvWriter csv(csv_path);
  csv.write_row({"algorithm", "round", "phase", "msec", "queue", "conflicts"});

  TextTable t;
  t.set_header({"algorithm", "round", "|W|", "coloring ms", "conflict ms",
                "kernels"},
               {TextTable::Align::kLeft});
  for (const auto& algo : algos) {
    ColoringOptions opt = bgpc_preset(algo);
    opt.num_threads = threads;
    const auto r = color_bgpc(g, opt);
    for (const auto& it : r.iterations) {
      if (it.round > max_rounds_shown) break;
      std::string kernels = it.net_based_coloring ? "N-" : "V-";
      kernels += it.net_based_conflict ? "N" : "V";
      t.add_row({algo, TextTable::fmt(static_cast<std::int64_t>(it.round)),
                 TextTable::fmt_sep(static_cast<std::int64_t>(it.queue_size)),
                 TextTable::fmt(it.color_seconds * 1e3),
                 TextTable::fmt(it.conflict_seconds * 1e3), kernels});
      csv.row(algo, it.round, "color", it.color_seconds * 1e3,
              it.queue_size, it.conflicts);
      csv.row(algo, it.round, "conflict", it.conflict_seconds * 1e3,
              it.queue_size, it.conflicts);
    }
    t.add_rule();
  }
  std::cout << t.to_string() << "\nseries written to " << csv_path << "\n";
  return 0;
}
