// Ablation: vertex orderings (and the dynamic DSATUR baseline) against
// coloring quality and cost — the menu behind Tables III vs IV.
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/core/dsatur.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/table.hpp"
#include "greedcolor/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  const auto datasets =
      args.has("datasets")
          ? std::vector<std::string>{args.get_string("datasets", "")}
          : std::vector<std::string>{"movielens_s", "copapers_s",
                                     "afshell_s", "uk2002_s"};
  const int threads = static_cast<int>(args.get_int("threads", 16));

  bench::SweepConfig banner;
  banner.datasets = datasets;
  banner.threads = {threads};
  bench::print_banner("Ablation: orderings vs colors and cost", banner);

  const std::vector<OrderingKind> kinds = {
      OrderingKind::kNatural, OrderingKind::kRandom,
      OrderingKind::kLargestFirst, OrderingKind::kSmallestLast,
      OrderingKind::kIncidenceDegree};

  for (const auto& name : datasets) {
    const BipartiteGraph g = load_bipartite(name);
    std::cout << "--- " << name << " (L=" << g.max_net_degree() << ") ---\n";
    TextTable t;
    t.set_header({"ordering", "order ms", "seq colors", "N1-N2 colors",
                  "N1-N2 ms"},
                 {TextTable::Align::kLeft});
    for (const auto kind : kinds) {
      WallTimer timer;
      const auto order = make_ordering(g, kind, 1);
      const double order_ms = timer.milliseconds();
      const auto seq = color_bgpc_sequential(g, order);
      ColoringOptions opt = bgpc_preset("N1-N2");
      opt.num_threads = threads;
      const auto par = color_bgpc(g, opt, order);
      const bool ok = is_valid_bgpc(g, par.colors);
      t.add_row({to_string(kind), TextTable::fmt(order_ms),
                 TextTable::fmt_sep(seq.num_colors),
                 TextTable::fmt_sep(par.num_colors) + (ok ? "" : "!"),
                 TextTable::fmt(par.total_seconds * 1e3)});
    }
    // DSATUR: the ordering is dynamic, so it is its own (sequential)
    // coloring algorithm; shown as the quality reference line.
    const auto ds = color_bgpc_dsatur(g);
    t.add_row({"dsatur (seq)", "-", TextTable::fmt_sep(ds.num_colors), "-",
               TextTable::fmt(ds.total_seconds * 1e3)});
    std::cout << t.to_string() << "\n";
  }
  std::cout << "expected shape: smallest-last and incidence-degree lower "
               "colors vs random;\nDSATUR is the quality ceiling at the "
               "highest sequential cost.\n";
  return 0;
}
