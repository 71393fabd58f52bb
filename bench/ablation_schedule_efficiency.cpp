// Ablation: what balanced colorings buy the downstream computation.
//
// Section V argues the cardinality imbalance barely hurts on one
// multicore CPU but "the impact of the imbalance increases with the
// number of processors/cores". ColorSchedule::stats quantifies that:
// for each balancing policy we report the schedule's parallel
// efficiency (items / (P x span)) across a sweep of core counts P —
// the many-core projection the paper reasons about.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/sched/color_schedule.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/table.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  const auto datasets =
      args.has("datasets")
          ? std::vector<std::string>{args.get_string("datasets", "")}
          : std::vector<std::string>{"copapers_s", "movielens_s",
                                     "uk2002_s"};
  const int threads = static_cast<int>(args.get_int("threads", 16));
  const std::vector<int> cores =
      args.get_int_list("cores", {2, 8, 16, 64, 256});

  bench::SweepConfig banner;
  banner.datasets = datasets;
  banner.threads = {threads};
  bench::print_banner(
      "Ablation: schedule efficiency vs core count (Section V)", banner);

  for (const auto& name : datasets) {
    const BipartiteGraph g = load_bipartite(name);
    std::cout << "--- " << name << " ---\n";
    TextTable t;
    std::vector<std::string> header = {"run", "#sets", "sd"};
    for (const int p : cores)
      header.push_back("eff P=" + std::to_string(p));
    t.set_header(std::move(header), {TextTable::Align::kLeft});
    for (const auto policy : {BalancePolicy::kNone, BalancePolicy::kB1,
                              BalancePolicy::kB2}) {
      ColoringOptions opt = bgpc_preset("N1-N2");
      opt.num_threads = threads;
      opt.balance = policy;
      const auto r = color_bgpc(g, opt);
      if (!is_valid_bgpc(g, r.colors)) {
        std::cerr << "invalid coloring\n";
        continue;
      }
      const ColorSchedule sched = ColorSchedule::build(r.colors);
      double sd = 0.0;
      {
        // stddev of class sizes, for context
        double sum = 0, sumsq = 0;
        for (color_t c = 0; c < sched.num_classes(); ++c) {
          const double s = sched.class_size(c);
          sum += s;
          sumsq += s * s;
        }
        const double mean = sum / sched.num_classes();
        sd = std::sqrt(std::max(0.0, sumsq / sched.num_classes() -
                                         mean * mean));
      }
      std::vector<std::string> row = {
          "N1-N2-" + to_string(policy),
          TextTable::fmt_sep(sched.num_classes()), TextTable::fmt(sd)};
      for (const int p : cores)
        row.push_back(TextTable::fmt(sched.stats(p).efficiency));
      t.add_row(std::move(row));
    }
    std::cout << t.to_string() << "\n";
  }
  std::cout << "expected shape: efficiencies are close at small P and "
               "diverge as P grows —\nB1/B2 hold up longer, which is "
               "Section V's many-core argument.\n";
  return 0;
}
