// Table III reproduction: geometric-mean BGPC speedups over the
// sequential and parallel V-V baselines with the NATURAL column order.
//
// Paper reference (16 physical cores): V-V 2.76x over seq, V-V-64D
// 4.05x, V-N2 6.01x, N1-N2 11.38x (4.12x over parallel V-V) with a
// 1.08x color increase for N1-N2.
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  bench::SweepConfig config;
  config.datasets = args.has("datasets")
                        ? std::vector<std::string>{args.get_string(
                              "datasets", "")}
                        : dataset_names();
  config.algos = bgpc_preset_names();
  config.threads = args.get_int_list("threads", {2, 4, 8, 16});
  config.order = OrderingKind::kNatural;
  config.reps = static_cast<int>(args.get_int("reps", 1));
  bench::print_bgpc_speedup_table(
      config, "Table III: BGPC speedups, natural order");
  std::cout
      << "\npaper (16 cores): colors/V-V: 1.00..1.08; t=16 speedups "
         "2.76 (V-V), 4.00 (V-V-64),\n4.05 (V-V-64D), 5.84 (V-Ninf), "
         "5.85 (V-N1), 6.01 (V-N2), 11.38 (N1-N2), 7.50 (N2-N2).\n"
         "On a single physical core the wall-clock columns flatten; "
         "the 'work V-V/alg'\ncolumn carries the machine-independent "
         "ordering (V-N* > 1, N1-N2 largest on\nskewed data).\n";
  return 0;
}
