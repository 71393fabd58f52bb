#include "bench_common.hpp"

#include <cmath>
#include <iostream>
#include <stdexcept>

#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/graph/graph_stats.hpp"
#include "greedcolor/util/env.hpp"
#include "greedcolor/util/table.hpp"

namespace gcol::bench {

namespace {

std::uint64_t total_work(const ColoringResult& r) {
  return r.total_color_counters().total_work() +
         r.total_conflict_counters().total_work();
}

template <typename RunFn, typename VerifyFn>
SweepRecord best_of(const std::string& dataset, const std::string& algo,
                    int threads, int reps, RunFn run, VerifyFn check) {
  SweepRecord rec;
  rec.dataset = dataset;
  rec.algo = algo;
  rec.threads = threads;
  rec.seconds = 1e300;
  for (int rep = 0; rep < std::max(reps, 1); ++rep) {
    const ColoringResult r = run();
    if (r.total_seconds < rec.seconds) {
      rec.seconds = r.total_seconds;
      rec.colors = r.num_colors;
      rec.rounds = r.rounds;
      rec.work = total_work(r);
    }
    if (!check(r)) rec.valid = false;
  }
  return rec;
}

}  // namespace

SweepRecord run_bgpc_once(const BipartiteGraph& g, const std::string& dataset,
                          const ColoringOptions& options,
                          const std::vector<vid_t>& order, int reps,
                          bool verify) {
  return best_of(
      dataset, options.name, options.num_threads, reps,
      [&] { return color_bgpc(g, options, order); },
      [&](const ColoringResult& r) {
        return !verify || is_valid_bgpc(g, r.colors);
      });
}

SweepRecord run_bgpc_sequential(const BipartiteGraph& g,
                                const std::string& dataset,
                                const std::vector<vid_t>& order, int reps) {
  return best_of(
      dataset, "seq", 1, reps,
      [&] { return color_bgpc_sequential(g, order); },
      [&](const ColoringResult& r) { return is_valid_bgpc(g, r.colors); });
}

std::vector<SweepRecord> run_bgpc_sweep(const SweepConfig& config) {
  std::vector<SweepRecord> records;
  for (const auto& name : config.datasets) {
    const BipartiteGraph g = load_bipartite(name);
    const auto order = make_ordering(g, config.order);
    records.push_back(run_bgpc_sequential(g, name, order, config.reps));
    for (const auto& algo : config.algos) {
      for (const int t : config.threads) {
        ColoringOptions opt = bgpc_preset(algo);
        opt.num_threads = t;
        opt.balance = config.balance;
        records.push_back(
            run_bgpc_once(g, name, opt, order, config.reps, config.verify));
      }
    }
  }
  return records;
}

SweepRecord run_d2gc_once(const Graph& g, const std::string& dataset,
                          const ColoringOptions& options,
                          const std::vector<vid_t>& order, int reps,
                          bool verify) {
  return best_of(
      dataset, options.name, options.num_threads, reps,
      [&] { return color_d2gc(g, options, order); },
      [&](const ColoringResult& r) {
        return !verify || is_valid_d2gc(g, r.colors);
      });
}

SweepRecord run_d2gc_sequential(const Graph& g, const std::string& dataset,
                                const std::vector<vid_t>& order, int reps) {
  return best_of(
      dataset, "seq", 1, reps,
      [&] { return color_d2gc_sequential(g, order); },
      [&](const ColoringResult& r) { return is_valid_d2gc(g, r.colors); });
}

std::vector<SweepRecord> run_d2gc_sweep(const SweepConfig& config) {
  std::vector<SweepRecord> records;
  for (const auto& name : config.datasets) {
    const Graph g = load_graph(name);
    const auto order = make_ordering(g, config.order);
    records.push_back(run_d2gc_sequential(g, name, order, config.reps));
    for (const auto& algo : config.algos) {
      for (const int t : config.threads) {
        ColoringOptions opt = d2gc_preset(algo);
        opt.num_threads = t;
        opt.balance = config.balance;
        records.push_back(
            run_d2gc_once(g, name, opt, order, config.reps, config.verify));
      }
    }
  }
  return records;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

const SweepRecord& find(const std::vector<SweepRecord>& records,
                        const std::string& dataset, const std::string& algo,
                        int threads) {
  for (const auto& r : records)
    if (r.dataset == dataset && r.algo == algo && r.threads == threads)
      return r;
  throw std::out_of_range("no sweep record for " + dataset + "/" + algo +
                          "/t" + std::to_string(threads));
}

void print_banner(const std::string& title, const SweepConfig& config) {
  std::cout << "=== " << title << " ===\n" << env_banner() << "\n";
  std::cout << "order=" << to_string(config.order)
            << " reps=" << config.reps << " threads=";
  for (std::size_t i = 0; i < config.threads.size(); ++i)
    std::cout << (i ? "," : "") << config.threads[i];
  std::cout << "\nNOTE: on hosts with fewer physical cores than the "
               "thread sweep, wall-clock\nparallel speedups are "
               "oversubscribed; the work-counter columns are the\n"
               "machine-independent comparison (see EXPERIMENTS.md).\n";
  for (const auto& name : config.datasets) {
    const auto& info = find_dataset(name);
    std::cout << "  " << name << " (" << info.mimics << "): "
              << signature(load_bipartite(name)) << "\n";
  }
  std::cout << "\n";
}

void print_bgpc_speedup_table(const SweepConfig& config,
                              const std::string& title) {
  print_banner(title, config);
  const auto records = run_bgpc_sweep(config);
  const int t_max = config.threads.back();

  TextTable t;
  std::vector<std::string> header = {"Algorithm", "colors/V-V"};
  for (const int th : config.threads)
    header.push_back("t=" + std::to_string(th));
  header.push_back("vs V-V t=" + std::to_string(t_max));
  header.push_back("work V-V/alg");
  t.set_header(std::move(header), {TextTable::Align::kLeft});

  for (const auto& algo : config.algos) {
    std::vector<double> color_ratio, vs_par, work_ratio;
    std::map<int, std::vector<double>> vs_seq;
    for (const auto& dataset : config.datasets) {
      const auto& seq = find(records, dataset, "seq", 1);
      const auto& vv = find(records, dataset, "V-V", t_max);
      const auto& at_max = find(records, dataset, algo, t_max);
      color_ratio.push_back(static_cast<double>(at_max.colors) /
                            static_cast<double>(vv.colors));
      vs_par.push_back(vv.seconds / at_max.seconds);
      work_ratio.push_back(static_cast<double>(vv.work) /
                           static_cast<double>(at_max.work));
      for (const int th : config.threads) {
        const auto& r = find(records, dataset, algo, th);
        vs_seq[th].push_back(seq.seconds / r.seconds);
      }
    }
    std::vector<std::string> row = {algo,
                                    TextTable::fmt(geomean(color_ratio))};
    for (const int th : config.threads)
      row.push_back(TextTable::fmt(geomean(vs_seq[th])));
    row.push_back(TextTable::fmt(geomean(vs_par)));
    row.push_back(TextTable::fmt(geomean(work_ratio)));
    t.add_row(std::move(row));
  }
  std::cout << t.to_string();
}

}  // namespace gcol::bench
