// Table I reproduction: number of uncolored (remaining) vertices after
// the first iteration when the most-optimistic net coloring (Alg. 6),
// its reverse-first-fit variant, and the two-pass Alg. 8 are used.
//
// Paper reference (16 threads):
//   bone010        |V_B| = 986,703: 863,785 / 806,264 / 610,924
//   coPapersDBLP   |V_B| = 540,486: 409,621 / 303,152 / 133,874
// Expected shape: Alg. 6 >> Alg. 6+reverse > Alg. 8.
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/table.hpp"

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  bench::SweepConfig config;
  config.datasets =
      args.has("datasets")
          ? std::vector<std::string>{args.get_string("datasets", "")}
          : std::vector<std::string>{"bone_s", "copapers_s"};
  const int threads = static_cast<int>(args.get_int("threads", 16));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  config.threads = {threads};
  config.reps = reps;
  bench::print_banner("Table I: |W_next| after the first iteration",
                      config);

  TextTable t;
  t.set_header({"Matrix-Graph", "|VB|", "Alg.6", "Alg.6+reverse", "Alg.8"},
               {TextTable::Align::kLeft});
  for (const auto& name : config.datasets) {
    const BipartiteGraph g = load_bipartite(name);
    auto remaining_after_round1 = [&](bool v1, bool v1_reverse) {
      ColoringOptions opt = bgpc_preset("N1-N2");
      opt.net_v1 = v1;
      opt.net_v1_reverse = v1_reverse;
      opt.num_threads = threads;
      std::size_t worst = 0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto r = color_bgpc(g, opt);
        worst = std::max(worst, r.iterations.front().conflicts);
      }
      return worst;
    };
    const auto alg6 = remaining_after_round1(true, false);
    const auto alg6r = remaining_after_round1(true, true);
    const auto alg8 = remaining_after_round1(false, false);
    t.add_row({name, TextTable::fmt_sep(g.num_nets()),
               TextTable::fmt_sep(static_cast<std::int64_t>(alg6)),
               TextTable::fmt_sep(static_cast<std::int64_t>(alg6r)),
               TextTable::fmt_sep(static_cast<std::int64_t>(alg8))});
  }
  std::cout << t.to_string()
            << "\npaper (16 threads): bone010 863,785 / 806,264 / "
               "610,924 of 986,703;\n"
               "coPapersDBLP 409,621 / 303,152 / 133,874 of 540,486.\n"
               "Expected shape: Alg.6 >> Alg.6+reverse > Alg.8.\n"
               "CAVEAT: the paper's mesh-graph (bone010) conflicts are "
               "dominated by *races*\nbetween truly concurrent threads "
               "reusing the same small first-fit colors; on a\nhost with "
               "a single physical core OpenMP threads serialize and that "
               "mechanism\nvanishes, so the shape only reproduces on the "
               "overlap-driven copapers_s row.\nSee EXPERIMENTS.md.\n";
  return 0;
}
