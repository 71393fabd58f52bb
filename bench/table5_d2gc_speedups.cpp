// Table V reproduction: D2GC speedups on the five structurally
// symmetric matrices, natural order, averaged over repetitions.
//
// Paper reference (16 cores, 10 reps): V-V-64D 6.11x over sequential
// V-V, V-N1 8.97x, V-N2 8.87x, N1-N2 13.20x (2.00x over V-V-64D, +9%
// colors).
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/table.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  bench::SweepConfig config;
  config.datasets = args.has("datasets")
                        ? std::vector<std::string>{args.get_string(
                              "datasets", "")}
                        : dataset_names(/*d2gc_only=*/true);
  config.algos = d2gc_preset_names();  // V-V-64D, V-N1, V-N2, N1-N2
  config.threads = args.get_int_list("threads", {2, 4, 8, 16});
  config.reps = static_cast<int>(args.get_int("reps", 3));
  bench::print_banner("Table V: D2GC speedups, natural order", config);

  const auto records = bench::run_d2gc_sweep(config);
  const int t_max = config.threads.back();

  TextTable t;
  std::vector<std::string> header = {"Algorithm", "colors/V-V-64D"};
  for (const int th : config.threads)
    header.push_back("t=" + std::to_string(th));
  header.push_back("vs 64D t=" + std::to_string(t_max));
  header.push_back("work 64D/alg");
  t.set_header(std::move(header), {TextTable::Align::kLeft});

  for (const auto& algo : config.algos) {
    std::vector<double> color_ratio, vs_64d, work_ratio;
    std::map<int, std::vector<double>> vs_seq;
    for (const auto& dataset : config.datasets) {
      const auto& seq = bench::find(records, dataset, "seq", 1);
      const auto& base = bench::find(records, dataset, "V-V-64D", t_max);
      const auto& at_max = bench::find(records, dataset, algo, t_max);
      color_ratio.push_back(static_cast<double>(at_max.colors) /
                            static_cast<double>(base.colors));
      vs_64d.push_back(base.seconds / at_max.seconds);
      work_ratio.push_back(static_cast<double>(base.work) /
                           static_cast<double>(at_max.work));
      for (const int th : config.threads)
        vs_seq[th].push_back(
            seq.seconds / bench::find(records, dataset, algo, th).seconds);
    }
    std::vector<std::string> row = {
        algo, TextTable::fmt(bench::geomean(color_ratio))};
    for (const int th : config.threads)
      row.push_back(TextTable::fmt(bench::geomean(vs_seq[th])));
    row.push_back(TextTable::fmt(bench::geomean(vs_64d)));
    row.push_back(TextTable::fmt(bench::geomean(work_ratio)));
    t.add_row(std::move(row));
  }
  std::cout << t.to_string()
            << "\npaper (16 cores): t=16 speedups over sequential V-V "
               "6.11 (V-V-64D), 8.97 (V-N1),\n8.87 (V-N2), 13.20 "
               "(N1-N2); N1-N2 = 2.00x over V-V-64D with ~1.05x "
               "colors.\n";
  return 0;
}
