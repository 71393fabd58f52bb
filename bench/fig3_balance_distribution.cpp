// Figure 3 reproduction: color-set cardinality distributions (sorted
// descending, log-scale y in the paper) for V-N2 and N1-N2 under U /
// B1 / B2 on the coPapersDBLP stand-in, 16 threads. Prints summary
// percentiles and writes the full curves to CSV.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/core/color_stats.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/csv.hpp"
#include "greedcolor/util/table.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  const std::string dataset = args.get_string("dataset", "copapers_s");
  const int threads = static_cast<int>(args.get_int("threads", 16));
  const std::string csv_path =
      args.get_string("csv", "fig3_balance_distribution.csv");

  bench::SweepConfig banner_cfg;
  banner_cfg.datasets = {dataset};
  banner_cfg.threads = {threads};
  bench::print_banner("Figure 3: color-set cardinality distributions",
                      banner_cfg);

  const BipartiteGraph g = load_bipartite(dataset);
  CsvWriter csv(csv_path);
  csv.write_row({"algorithm", "balance", "rank", "cardinality"});

  TextTable t;
  t.set_header({"run", "#sets", "max", "p50", "p90", "p99", "singletons",
                "stddev"},
               {TextTable::Align::kLeft});
  for (const std::string algo : {"V-N2", "N1-N2"}) {
    for (const auto policy :
         {BalancePolicy::kNone, BalancePolicy::kB1, BalancePolicy::kB2}) {
      ColoringOptions opt = bgpc_preset(algo);
      opt.num_threads = threads;
      opt.balance = policy;
      const auto r = color_bgpc(g, opt);
      if (!is_valid_bgpc(g, r.colors))
        std::cerr << "WARNING: invalid coloring\n";
      const auto stats = color_class_stats(r.colors);
      const auto sorted = stats.sorted_cardinalities();
      auto pct = [&](double q) {
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(sorted.size() - 1));
        return sorted[idx];
      };
      const std::string label = algo + "-" + to_string(policy);
      t.add_row({label, TextTable::fmt_sep(stats.num_colors),
                 TextTable::fmt_sep(stats.max), TextTable::fmt_sep(pct(0.5)),
                 TextTable::fmt_sep(pct(0.9)), TextTable::fmt_sep(pct(0.99)),
                 TextTable::fmt_sep(stats.singleton_sets),
                 TextTable::fmt(stats.stddev)});
      for (std::size_t rank = 0; rank < sorted.size(); ++rank)
        csv.row(algo, to_string(policy), rank, sorted[rank]);
    }
    t.add_rule();
  }
  std::cout << t.to_string() << "\ncurves written to " << csv_path
            << "\npaper shape: U curves have a few huge sets and a long "
               "singleton tail; B1\nflattens moderately, B2 flattens "
               "aggressively (max set and stddev drop, a few\nmore "
               "sets appear).\n";
  return 0;
}
