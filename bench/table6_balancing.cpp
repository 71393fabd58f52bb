// Table VI reproduction: effect of the balancing heuristics B1/B2 on
// coloring time, number of color sets, average cardinality, and the
// cardinality standard deviation for V-N2 and N1-N2, normalized to the
// unbalanced (-U) runs. Geometric means across the dataset suite.
//
// Paper reference (16 threads): V-N2-B1 0.95/1.04/0.96/0.69,
// V-N2-B2 0.95/1.13/0.89/0.25, N1-N2-B1 0.99/1.04/0.96/0.84,
// N1-N2-B2 0.99/1.09/0.91/0.62 (time / #sets / avg card / stddev).
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/core/color_stats.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/table.hpp"
#include "greedcolor/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  const auto datasets = args.has("datasets")
                            ? std::vector<std::string>{args.get_string(
                                  "datasets", "")}
                            : dataset_names();
  const int threads = static_cast<int>(args.get_int("threads", 16));
  const int reps = static_cast<int>(args.get_int("reps", 3));

  bench::SweepConfig banner_cfg;
  banner_cfg.datasets = datasets;
  banner_cfg.threads = {threads};
  banner_cfg.reps = reps;
  bench::print_banner("Table VI: balancing heuristics B1/B2", banner_cfg);

  struct Outcome {
    double seconds = 0.0;
    double num_sets = 0.0;
    double avg_card = 0.0;
    double stddev = 0.0;
  };
  auto measure = [&](const BipartiteGraph& g, const std::string& algo,
                     BalancePolicy policy) {
    ColoringOptions opt = bgpc_preset(algo);
    opt.num_threads = threads;
    opt.balance = policy;
    Outcome best;
    best.seconds = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      const auto r = color_bgpc(g, opt);
      if (!is_valid_bgpc(g, r.colors))
        std::cerr << "WARNING: invalid coloring " << algo << "\n";
      const auto s = color_class_stats(r.colors);
      if (r.total_seconds < best.seconds)
        best = {r.total_seconds, static_cast<double>(s.num_colors), s.mean,
                s.stddev};
    }
    return best;
  };

  // The offline "least-used" post-pass: the expensive alternative the
  // paper's Section V declines to run online — shown as the balance
  // ceiling. Time includes the base U coloring plus the post-pass.
  auto measure_lu = [&](const BipartiteGraph& g, const std::string& algo) {
    ColoringOptions opt = bgpc_preset(algo);
    opt.num_threads = threads;
    Outcome best;
    best.seconds = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      auto r = color_bgpc(g, opt);
      WallTimer post;
      balanced_recolor_bgpc(g, r.colors);
      const double seconds = r.total_seconds + post.seconds();
      if (!is_valid_bgpc(g, r.colors))
        std::cerr << "WARNING: invalid LU coloring\n";
      const auto s = color_class_stats(r.colors);
      if (seconds < best.seconds)
        best = {seconds, static_cast<double>(s.num_colors), s.mean,
                s.stddev};
    }
    return best;
  };

  TextTable t;
  t.set_header({"Algorithm", "time", "#sets", "avg card", "stddev"},
               {TextTable::Align::kLeft});
  for (const std::string algo : {"V-N2", "N1-N2"}) {
    t.add_row({algo + "-U", "1.00", "1.00", "1.00", "1.00"});
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<double> rt, rsets, rcard, rsd;
      for (const auto& dataset : datasets) {
        const BipartiteGraph g = load_bipartite(dataset);
        const Outcome u = measure(g, algo, BalancePolicy::kNone);
        const Outcome b =
            variant == 0   ? measure(g, algo, BalancePolicy::kB1)
            : variant == 1 ? measure(g, algo, BalancePolicy::kB2)
                           : measure_lu(g, algo);
        rt.push_back(b.seconds / u.seconds);
        rsets.push_back(b.num_sets / u.num_sets);
        rcard.push_back(b.avg_card / u.avg_card);
        // A perfectly uniform unbalanced run (stddev 0, e.g. on a
        // regular mesh) has nothing to improve; count it as ratio 1.
        rsd.push_back(u.stddev > 0.0 ? b.stddev / u.stddev : 1.0);
      }
      const std::string label =
          variant == 0 ? "-B1" : variant == 1 ? "-B2" : "-LU (offline)";
      t.add_row({algo + label, TextTable::fmt(bench::geomean(rt)),
                 TextTable::fmt(bench::geomean(rsets)),
                 TextTable::fmt(bench::geomean(rcard)),
                 TextTable::fmt(bench::geomean(rsd))});
    }
    t.add_rule();
  }
  std::cout << t.to_string()
            << "\npaper (16 threads, normalized to -U): B1 time ~1.0 "
               "with stddev 0.69-0.84x;\nB2 time ~1.0 with stddev "
               "0.25-0.62x at ~1.1x color sets — balancing is free.\n";
  return 0;
}
