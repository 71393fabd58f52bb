// Color-parallel coordinate descent — the matrix-decomposition /
// machine-learning motivation behind the paper's 20M_movielens
// experiment.
//
// Minimizing f(x) = 1/2 ||Ax - b||^2 by coordinate descent updates one
// column's coefficient at a time; two columns sharing a nonzero row
// race on the shared residual entries. A BGPC coloring of A's columns
// partitions them into structurally-orthogonal groups, so all columns
// of one color update the residual concurrently WITHOUT locks or
// atomics — ColorSchedule executes exactly that plan. Balanced color
// classes (heuristic B2) keep every round saturated, which is the
// effect Section V of the paper targets.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/color_stats.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/graph/sparse_matrix.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/env.hpp"
#include "greedcolor/util/prng.hpp"
#include "greedcolor/util/timer.hpp"

namespace {

double norm2(const std::vector<double>& r) {
  double s = 0.0;
  for (const double v : r) s += v * v;
  return std::sqrt(s);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);
  std::cout << env_banner() << "\n";

  // 1. A MovieLens-like rating pattern with values.
  PowerLawBipartiteParams p;
  p.rows = static_cast<vid_t>(args.get_int("rows", 3000));
  p.cols = static_cast<vid_t>(args.get_int("cols", 9000));
  p.min_deg = 6;
  p.max_deg = static_cast<vid_t>(args.get_int("max-deg", 800));
  p.alpha = 1.0;
  p.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  Coo coo = gen_powerlaw_bipartite(p);
  Xoshiro256 rng(p.seed ^ 0xC0FFEE);
  coo.vals.resize(coo.rows.size());
  for (auto& v : coo.vals) v = rng.uniform() * 2.0 - 1.0;

  const CscMatrix a = CscMatrix::from_coo(coo);
  const BipartiteGraph g = build_bipartite(coo);
  std::cout << "A: " << a.num_rows() << " x " << a.num_cols() << ", nnz "
            << a.nnz() << "\n";

  // 2. Color the columns; optionally balance the class sizes.
  ColoringOptions opt = bgpc_preset(args.get_string("algo", "N1-N2"));
  opt.num_threads = static_cast<int>(args.get_int("threads", 0));
  const std::string balance = args.get_string("balance", "B2");
  if (balance == "B1") opt.balance = BalancePolicy::kB1;
  if (balance == "B2") opt.balance = BalancePolicy::kB2;
  const auto coloring = color_bgpc(g, opt);
  if (!is_valid_bgpc(g, coloring.colors)) {
    std::cerr << "invalid coloring\n";
    return EXIT_FAILURE;
  }
  const auto cstats = color_class_stats(coloring.colors);
  const ColorSchedule schedule = ColorSchedule::build(coloring.colors);
  const int cores = std::max(1, opt.num_threads);
  std::cout << "coloring (" << opt.name << "-" << to_string(opt.balance)
            << "): " << cstats.num_colors << " classes, sizes mean "
            << cstats.mean << " sd " << cstats.stddev << " max "
            << cstats.max << "\n"
            << "schedule: span " << cstats.span(cores) << ", efficiency "
            << cstats.efficiency(cores) << " at " << cores << " thread(s)\n";

  // 3. Synthetic target b = A * x_true.
  std::vector<double> x_true(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x_true) v = rng.uniform() * 2.0 - 1.0;
  std::vector<double> b;
  a.multiply(x_true, b);

  // 4. Color-parallel coordinate descent on the residual r = b - A x.
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 0.0);
  std::vector<double> r = b;
  const int epochs = static_cast<int>(args.get_int("epochs", 10));
  std::cout << "initial ||r|| = " << norm2(r) << "\n";
  WallTimer timer;
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    // Columns within one class touch disjoint residual rows: the plain
    // (non-atomic) updates below are race-free because — and only
    // because — the coloring is a valid BGPC.
    schedule.for_each_parallel(
        [&](vid_t j) {
          const double sq = a.column_sqnorm(j);
          if (sq == 0.0) return;
          const auto idx = a.col_indices(j);
          const auto val = a.col_values(j);
          double dot = 0.0;
          for (std::size_t k = 0; k < idx.size(); ++k)
            dot += val[k] * r[static_cast<std::size_t>(idx[k])];
          const double delta = dot / sq;
          x[static_cast<std::size_t>(j)] += delta;
          for (std::size_t k = 0; k < idx.size(); ++k)
            r[static_cast<std::size_t>(idx[k])] -= delta * val[k];
        },
        opt.num_threads);
    if (epoch == 1 || epoch == epochs || epoch % 5 == 0)
      std::cout << "epoch " << epoch << ": ||r|| = " << norm2(r) << "\n";
  }
  std::cout << "CD time: " << timer.milliseconds() << " ms ("
            << cstats.num_colors << " barriers/epoch)\n";

  const double final_norm = norm2(r);
  const double initial_norm = norm2(b);
  std::cout << "reduction: " << initial_norm / std::max(final_norm, 1e-300)
            << "x\n";
  return final_norm < 0.5 * initial_norm ? EXIT_SUCCESS : EXIT_FAILURE;
}
