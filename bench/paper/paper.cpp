// The paper driver: every table and figure of Taş, Kaya & Saule, "Greed
// is Good" (ICPP 2017), plus the few ablations that test a claim the
// paper makes, from one constant table of experiments.
//
//   build/bench/paper [--smoke] [--out FILE]
//
// One run loop walks (experiment, dataset, config, threads, rep) and
// writes one JSON document (schema gcol-paper-v1) of raw per-rep rows
// to FILE (stdout by default); bench/paper/run.py renders the
// EXPERIMENTS.md tables from it. Every row field is read from the
// ColoringResult, its IterationStats or color_class_stats, plus the
// validity check and the post-pass time. Tables that share a
// measurement share the rows: Figure 1, Figure 2, Table II (natural),
// Table III and Table I's Alg. 8 column are one natural-order sweep;
// Table VI, Figure 3 and the schedule-efficiency ablation are one
// balance run set.
//
// The thread sweep is {1, 2, 4, ..., hardware threads}; every config
// runs 5 reps. --smoke runs every experiment once on nlpkkt_s at
// t in {1, 2}. Exit codes: 0 ok, 1 some coloring was invalid (the
// document is still written), 2 usage.
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/color_stats.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/dsatur.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/graph/graph_stats.hpp"
#include "greedcolor/obs/json.hpp"
#include "greedcolor/order/ordering.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/env.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/timer.hpp"

namespace {

using namespace gcol;
using obs::Json;

enum class Problem { kBgpc, kD2gc, kD1gc };

/// Sequential post-pass applied to each parallel coloring (BGPC only).
enum class Post { kNone, kRecolor, kLeastUsed };

/// One coloring configuration. `algo` is a BGPC/D2GC preset name or one
/// of the drivers the presets do not cover: "seq" (sequential greedy
/// over `order`), "dsatur", "jp" (Jones-Plassmann D1GC), "alg6" and
/// "alg6-reverse" (N1-N2 whose net-colored round is Table I's Alg. 6).
struct Config {
  std::string algo;
  OrderingKind order = OrderingKind::kNatural;
  BalancePolicy balance = BalancePolicy::kNone;
  Post post = Post::kNone;
};

struct Experiment {
  std::string name;
  Problem problem = Problem::kBgpc;
  /// Registry names; empty = every dataset the problem uses.
  std::vector<std::string> datasets;
  std::vector<Config> configs;
  /// false: only the largest thread count (the paper's 16-thread runs).
  bool thread_sweep = true;
  /// Also record each row's color-set cardinalities, sorted descending.
  bool distribution = false;
};

std::vector<Config> grid(const std::vector<std::string>& algos,
                         const std::vector<OrderingKind>& orders,
                         const std::vector<BalancePolicy>& balances,
                         Post post = Post::kNone) {
  std::vector<Config> out;
  for (const auto& algo : algos)
    for (const auto order : orders)
      for (const auto balance : balances)
        out.push_back({algo, order, balance, post});
  return out;
}

std::vector<Config> with_seq(std::vector<std::string> algos,
                             OrderingKind order) {
  algos.insert(algos.begin(), "seq");
  return grid(algos, {order}, {BalancePolicy::kNone});
}

const std::vector<Experiment>& experiments() {
  using B = BalancePolicy;
  using O = OrderingKind;
  static const std::vector<Experiment> table = [] {
    const std::vector<std::string> balanced = {"V-N2", "N1-N2"};
    std::vector<Config> balance =
        grid(balanced, {O::kNatural}, {B::kNone, B::kB1, B::kB2});
    for (const auto& c : grid(balanced, {O::kNatural}, {B::kNone},
                              Post::kLeastUsed))
      balance.push_back(c);
    std::vector<Config> orderings =
        grid({"seq", "N1-N2"},
             {O::kNatural, O::kRandom, O::kLargestFirst, O::kSmallestLast,
              O::kIncidenceDegree},
             {B::kNone});
    orderings.push_back({"dsatur"});
    return std::vector<Experiment>{
        // Figures 1-2, Tables II-III, Table I's Alg. 8 column.
        {"bgpc-natural", Problem::kBgpc, {},
         with_seq(bgpc_preset_names(), O::kNatural)},
        // Tables II (smallest-last columns) and IV.
        {"bgpc-sl", Problem::kBgpc, {},
         with_seq(bgpc_preset_names(), O::kSmallestLast)},
        // Table V.
        {"d2gc", Problem::kD2gc, {},
         with_seq(d2gc_preset_names(), O::kNatural)},
        // Table VI, Figure 3 and §V's schedule efficiency.
        {"balance", Problem::kBgpc, {}, balance, false, true},
        // Table I's Alg. 6 columns.
        {"first-iteration", Problem::kBgpc, {"bone_s", "copapers_s"},
         grid({"alg6", "alg6-reverse"}, {O::kNatural}, {B::kNone})},
        // Ablations, one per claim: orderings vs colors with the DSATUR
        // ceiling, what a recoloring pass recovers, and the intro's
        // D1-is-cheap claim (BGPC/D2GC sides come from the sweeps).
        {"orderings", Problem::kBgpc,
         {"movielens_s", "copapers_s", "afshell_s", "uk2002_s"}, orderings,
         false},
        {"recolor", Problem::kBgpc, {"copapers_s", "movielens_s", "bone_s"},
         grid({"V-V-64D", "V-N2", "N1-N2", "N2-N2"}, {O::kNatural},
              {B::kNone}, Post::kRecolor),
         false},
        {"d1-vs-d2", Problem::kD1gc, {},
         grid({"seq", "jp", "V-V-64D"}, {O::kNatural}, {B::kNone}), false},
    };
  }();
  return table;
}

std::string to_string(Post p) {
  switch (p) {
    case Post::kNone:
      return "none";
    case Post::kRecolor:
      return "recolor";
    case Post::kLeastUsed:
      return "least-used";
  }
  return "?";
}

bool is_sequential(const Config& c) {
  return c.algo == "seq" || c.algo == "dsatur";
}

/// The graph one experiment colors on one dataset.
struct Instance {
  std::optional<BipartiteGraph> bipartite;
  std::optional<Graph> graph;

  Instance(Problem problem, const std::string& name) {
    if (problem == Problem::kBgpc)
      bipartite = load_bipartite(name);
    else
      graph = load_graph(name);
  }

  [[nodiscard]] std::vector<vid_t> ordering(OrderingKind kind) const {
    return bipartite ? make_ordering(*bipartite, kind, 1)
                     : make_ordering(*graph, kind, 1);
  }
};

ColoringOptions options_for(Problem problem, const Config& c, int threads) {
  ColoringOptions opt;
  if (c.algo == "alg6" || c.algo == "alg6-reverse") {
    opt = bgpc_preset("N1-N2");
    opt.name = c.algo;
    opt.net_v1 = true;
    opt.net_v1_reverse = c.algo == "alg6-reverse";
  } else {
    opt = problem == Problem::kD2gc ? d2gc_preset(c.algo)
                                    : bgpc_preset(c.algo);
  }
  opt.num_threads = threads;
  opt.balance = c.balance;
  return opt;
}

ColoringResult color(Problem problem, const Instance& in, const Config& c,
                     int threads, const std::vector<vid_t>& order) {
  if (c.algo == "dsatur") return color_bgpc_dsatur(*in.bipartite);
  if (c.algo == "jp") return color_d1gc_jones_plassmann(*in.graph, 1, threads);
  const bool seq = c.algo == "seq";
  switch (problem) {
    case Problem::kBgpc:
      return seq ? color_bgpc_sequential(*in.bipartite, order)
                 : color_bgpc(*in.bipartite,
                              options_for(problem, c, threads), order);
    case Problem::kD2gc:
      return seq ? color_d2gc_sequential(*in.graph, order)
                 : color_d2gc(*in.graph, options_for(problem, c, threads),
                              order);
    case Problem::kD1gc:
      return seq ? color_d1gc_sequential(*in.graph, order)
                 : color_d1gc(*in.graph, options_for(problem, c, threads),
                              order);
  }
  return {};
}

bool is_valid(Problem problem, const Instance& in,
              const std::vector<color_t>& colors) {
  switch (problem) {
    case Problem::kBgpc:
      return is_valid_bgpc(*in.bipartite, colors);
    case Problem::kD2gc:
      return is_valid_d2gc(*in.graph, colors);
    case Problem::kD1gc:
      return is_valid_d1gc(*in.graph, colors);
  }
  return false;
}

/// Runs the post-pass in place; returns its wall time in seconds.
double post_pass(Post post, const Instance& in, ColoringResult& r) {
  if (post == Post::kNone) return 0.0;
  const BipartiteGraph& g = *in.bipartite;
  WallTimer timer;
  r.num_colors = post == Post::kRecolor ? recolor_bgpc(g, r.colors)
                                        : balanced_recolor_bgpc(g, r.colors);
  return timer.seconds();
}

Json iteration_rows(const ColoringResult& r) {
  Json out = Json::array();
  for (const IterationStats& it : r.iterations) {
    Json row = Json::object();
    row.set("queue", static_cast<std::uint64_t>(it.queue_size));
    row.set("conflicts", static_cast<std::uint64_t>(it.conflicts));
    row.set("color_ms", it.color_seconds * 1e3);
    row.set("conflict_ms", it.conflict_seconds * 1e3);
    row.set("kernels", std::string(it.net_based_coloring ? "N" : "V") +
                           (it.net_based_conflict ? "N" : "V"));
    out.push_back(std::move(row));
  }
  return out;
}

Json dataset_row(const DatasetInfo& info, const BipartiteGraph& g) {
  const DegreeStats nd = net_degree_stats(g);
  Json row = Json::object();
  row.set("mimics", info.mimics);
  row.set("rows", static_cast<std::uint64_t>(g.num_nets()));
  row.set("cols", static_cast<std::uint64_t>(g.num_vertices()));
  row.set("nnz", static_cast<std::uint64_t>(g.num_edges()));
  row.set("deg_max", static_cast<std::uint64_t>(nd.max));
  row.set("deg_sd", nd.stddev);
  row.set("d2gc", info.used_for_d2gc);
  return row;
}

std::vector<int> thread_sweep(bool smoke) {
  if (smoke) return {1, 2};
  const int hw = hardware_threads();
  std::vector<int> sweep;
  for (int t = 1; t < hw; t *= 2) sweep.push_back(t);
  sweep.push_back(hw);
  return sweep;
}

Json fingerprint() {
  const EnvInfo env = query_env();
  Json fp = Json::object();
  fp.set("compiler", env.compiler);
  fp.set("build", GCOL_PAPER_BUILD);
  fp.set("nproc", env.hardware_threads);
  fp.set("omp_max_threads", env.omp_max_threads);
  fp.set("counters", env.counters_enabled);
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto unknown = args.unknown_options({"smoke", "out"});
  if (!unknown.empty() || !args.positional().empty() ||
      (args.has("out") && args.get_string("out", "").empty())) {
    std::cerr << "usage: " << args.program() << " [--smoke] [--out FILE]\n";
    for (const auto& name : unknown)
      std::cerr << "unknown option --" << name << "\n";
    return 2;
  }
  const bool smoke = args.has("smoke");
  const int reps = smoke ? 1 : 5;
  const std::vector<int> sweep = thread_sweep(smoke);

  Json datasets = Json::object();
  Json rows = Json::array();
  std::uint64_t invalid = 0;
  WallTimer elapsed;
  for (const Experiment& e : experiments()) {
    const std::vector<std::string> names =
        smoke ? std::vector<std::string>{"nlpkkt_s"}
        : e.datasets.empty()
            ? dataset_names(/*d2gc_only=*/e.problem != Problem::kBgpc)
            : e.datasets;
    for (const std::string& name : names) {
      std::cerr << "[" << elapsed.seconds() << " s] " << e.name << " / "
                << name << "\n";
      const Instance in(e.problem, name);
      if (in.bipartite && !datasets.find(name))
        datasets.set(name, dataset_row(find_dataset(name), *in.bipartite));
      std::map<OrderingKind, std::vector<vid_t>> orders;
      for (const Config& c : e.configs) {
        if (!orders.contains(c.order))
          orders.emplace(c.order, in.ordering(c.order));
        const std::vector<vid_t>& order = orders.at(c.order);
        std::vector<int> threads = {1};
        if (!is_sequential(c))
          threads = e.thread_sweep ? sweep : std::vector<int>{sweep.back()};
        for (const int t : threads) {
          for (int rep = 0; rep < reps; ++rep) {
            ColoringResult r = color(e.problem, in, c, t, order);
            const double post_seconds = post_pass(c.post, in, r);
            const bool valid = is_valid(e.problem, in, r.colors);
            if (!valid) {
              ++invalid;
              std::cerr << "INVALID coloring: " << e.name << " " << name
                        << " " << c.algo << " t=" << t << "\n";
            }
            const ColorClassStats cls = color_class_stats(r.colors);
            Json row = Json::object();
            row.set("experiment", e.name);
            row.set("dataset", name);
            row.set("algo", c.algo);
            row.set("order", to_string(c.order));
            row.set("balance", to_string(c.balance));
            row.set("post", to_string(c.post));
            row.set("threads", t);
            row.set("rep", rep);
            row.set("valid", valid);
            row.set("seconds", r.total_seconds);
            row.set("post_seconds", post_seconds);
            row.set("colors", r.num_colors);
            row.set("rounds", r.rounds);
            row.set("work", r.total_color_counters().total_work() +
                                r.total_conflict_counters().total_work());
            row.set("sets", cls.num_colors);
            row.set("card_mean", cls.mean);
            row.set("card_sd", cls.stddev);
            row.set("card_max", cls.max);
            row.set("singletons", cls.singleton_sets);
            row.set("iterations", iteration_rows(r));
            if (e.distribution) {
              Json card = Json::array();
              for (const vid_t s : cls.sorted_cardinalities())
                card.push_back(s);
              row.set("cardinalities", std::move(card));
            }
            rows.push_back(std::move(row));
          }
        }
      }
    }
  }

  Json doc = Json::object();
  doc.set("schema", "gcol-paper-v1");
  doc.set("smoke", smoke);
  doc.set("reps", reps);
  Json threads = Json::array();
  for (const int t : sweep) threads.push_back(t);
  doc.set("threads", std::move(threads));
  doc.set("fingerprint", fingerprint());
  doc.set("seconds", elapsed.seconds());
  doc.set("invalid", invalid);
  doc.set("datasets", std::move(datasets));
  doc.set("rows", std::move(rows));
  if (args.has("out")) {
    std::ofstream out(args.get_string("out", ""));
    doc.dump(out, 1);
    out << "\n";
    if (!out) {
      std::cerr << "cannot write " << args.get_string("out", "") << "\n";
      return 2;
    }
  } else {
    doc.dump(std::cout, 1);
    std::cout << "\n";
  }
  return invalid == 0 ? 0 : 1;
}
