// Ablation: iterated-greedy recoloring after each parallel algorithm —
// how much of the optimistic variants' color inflation (paper: +8% for
// N1-N2) a cheap sequential post-pass can claw back.
#include <iostream>

#include "bench_common.hpp"
#include "greedcolor/core/recolor.hpp"
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
          : std::vector<std::string>{"copapers_s", "movielens_s",
                                     "bone_s"};
  const int threads = static_cast<int>(args.get_int("threads", 16));

  bench::SweepConfig banner;
  banner.datasets = datasets;
  banner.threads = {threads};
  bench::print_banner("Ablation: iterated-greedy recoloring", banner);

  for (const auto& name : datasets) {
    const BipartiteGraph g = load_bipartite(name);
    std::cout << "--- " << name << " (L=" << g.max_net_degree() << ") ---\n";
    TextTable t;
    t.set_header({"algorithm", "colors", "after 1 pass", "at fixpoint",
                  "color ms", "recolor ms"},
                 {TextTable::Align::kLeft});
    for (const std::string algo : {"V-V-64D", "V-N2", "N1-N2", "N2-N2"}) {
      ColoringOptions opt = bgpc_preset(algo);
      opt.num_threads = threads;
      auto r = color_bgpc(g, opt);
      if (!is_valid_bgpc(g, r.colors)) {
        std::cerr << "invalid base coloring for " << algo << "\n";
        continue;
      }
      auto once = r.colors;
      WallTimer timer;
      const color_t after_one = recolor_bgpc(g, once);
      const double one_ms = timer.milliseconds();
      auto fix = r.colors;
      const color_t after_fix = recolor_bgpc_to_fixpoint(g, fix);
      t.add_row({algo, TextTable::fmt_sep(r.num_colors),
                 TextTable::fmt_sep(after_one),
                 TextTable::fmt_sep(after_fix),
                 TextTable::fmt(r.total_seconds * 1e3),
                 TextTable::fmt(one_ms)});
    }
    std::cout << t.to_string() << "\n";
  }
  std::cout << "expected shape: one pass recovers most of the optimistic "
               "variants' color\ninflation at roughly the cost of one "
               "sequential coloring.\n";
  return 0;
}
