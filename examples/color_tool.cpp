// color_tool: command-line BGPC/D2GC runner — the "real tool" built on
// the public API. Reads a bundled dataset or a MatrixMarket file, runs
// any algorithm preset (or the sequential baseline), verifies, and
// reports timing, colors, balance, and work counters.
//
// Examples:
//   color_tool --dataset movielens_s --algo V-V --threads 4
//   color_tool --mtx my.mtx --algo N1-N2 --order smallest-last --balance B2
//   color_tool --dataset bone_s --problem d2gc --algo V-N1
//   color_tool --list
#include <cstdlib>
#include <iostream>

#include "greedcolor/analyze/audit.hpp"
#include "greedcolor/analyze/structure.hpp"
#include "greedcolor/check/explore.hpp"
#include "greedcolor/check/trace.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/color_stats.hpp"
#include "greedcolor/core/d1gc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/dsatur.hpp"
#include "greedcolor/core/recolor.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/obs/metrics.hpp"
#include "greedcolor/obs/report.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/robust/verified.hpp"
#include "greedcolor/graph/binary_io.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/graph/graph_stats.hpp"
#include "greedcolor/graph/mtx_io.hpp"
#include "greedcolor/order/ordering.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/env.hpp"
#include "greedcolor/util/table.hpp"

namespace {

void print_report(const gcol::ColoringResult& result,
                  const std::string& algo_name, gcol::vid_t lower_bound) {
  using gcol::TextTable;
  const gcol::ColorClassStats stats =
      gcol::color_class_stats(result.colors);
  std::cout << "algorithm        " << algo_name << "\n"
            << "wall time        " << TextTable::fmt(result.total_seconds * 1e3)
            << " ms\n"
            << "colors           " << result.num_colors << " (lower bound "
            << lower_bound << ")\n"
            << "rounds           " << result.rounds
            << (result.sequential_fallback ? " (sequential fallback!)" : "")
            << "\n"
            << "class sizes      mean " << TextTable::fmt(stats.mean)
            << ", stddev " << TextTable::fmt(stats.stddev) << ", max "
            << stats.max << ", singletons " << stats.singleton_sets << "\n";
  const auto cc = result.total_color_counters();
  const auto kc = result.total_conflict_counters();
  std::cout << "work (color)     edges=" << cc.edges_visited
            << " probes=" << cc.color_probes << " colored=" << cc.colored
            << "\n"
            << "work (conflict)  edges=" << kc.edges_visited
            << " conflicts=" << kc.conflicts << "\n";
  std::cout << "robust           degraded=" << (result.degraded ? "yes" : "no")
            << " rounds_capped=" << (result.rounds_capped ? "yes" : "no")
            << " deadline_hit=" << (result.deadline_hit ? "yes" : "no")
            << " repaired=" << result.repaired_vertices
            << " faults_injected=" << result.faults_injected << "\n";
  TextTable t;
  t.set_header({"round", "|W|", "conflicts", "color ms", "conflict ms",
                "kernels"},
               {TextTable::Align::kRight});
  for (const auto& it : result.iterations) {
    std::string kernels = it.net_based_coloring ? "N-" : "V-";
    kernels += it.net_based_conflict ? "N" : "V";
    t.add_row({TextTable::fmt(static_cast<std::int64_t>(it.round)),
               TextTable::fmt(static_cast<std::int64_t>(it.queue_size)),
               TextTable::fmt(static_cast<std::int64_t>(it.conflicts)),
               TextTable::fmt(it.color_seconds * 1e3),
               TextTable::fmt(it.conflict_seconds * 1e3), kernels});
  }
  std::cout << t.to_string();
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace gcol;
  const ArgParser args(argc, argv);

  if (args.has("help")) {
    std::cout
        << "usage: color_tool [--dataset NAME | --mtx FILE | --bin FILE] "
           "[options]\n"
           "  --list               list bundled datasets and exit\n"
           "  --problem bgpc|d2gc|d1gc  (default bgpc)\n"
           "  --algo NAME          bgpc/d2gc: V-V V-V-64 V-V-64D V-Ninf\n"
           "                       V-N1 V-N2 N1-N2 N2-N2, 'seq', 'dsatur'\n"
           "                       d1gc: seq spec jp dsatur\n"
           "  --order NAME         natural random largest-first\n"
           "                       smallest-last smallest-last-relaxed\n"
           "                       incidence-degree\n"
           "  --balance U|B1|B2    balancing heuristic (default U)\n"
           "  --side cols|rows     bgpc: color matrix columns or rows "
           "(default cols)\n"
           "  --seed N             d1gc jp: priority seed (default 1)\n"
           "  --threads N          0 = OpenMP default\n"
           "  --recolor            run iterated-greedy post-pass (bgpc)\n"
           "  --stats-only         print dataset statistics and exit\n"
           "  --deadline-ms N      convergence-watchdog wall deadline\n"
           "  --max-rounds N       speculative round budget\n"
           "  --fault-plan SPEC    inject faults, e.g. "
           "'seed=7,stale=0.1,delay-rounds=2,delay-ms=5'\n"
           "  --trace-out FILE     write a Chrome trace-event JSON of the "
           "run\n"
           "                       (open in Perfetto / about://tracing; "
           "bgpc, d2gc)\n"
           "  --report FILE        write a gcol-report-v1 JSON run report\n"
           "  --analyze            structural input analysis; exit 2 if "
           "the graph is broken\n"
           "  --audit              attach the speculative-race auditor "
           "and print its report\n"
           "  --model-check [MODE] explore kernel schedules instead of "
           "timing one run\n"
           "                       (GCOL_MC builds; exhaustive|dpor|random, "
           "default dpor)\n"
           "  --mc-seed N          random-mode schedule seed (default 1)\n"
           "  --mc-schedules N     random-mode schedule budget (default "
           "256)\n"
           "  --mc-vthreads N      virtual threads to schedule (default 2)\n"
           "  --mc-replay FILE     replay one recorded schedule trace\n"
           "  --mc-trace-out FILE  where to write a violation witness "
           "(default violation.mctrace)\n"
           "exit codes: 0 ok, 1 usage, 2 bad input (typed), 3 internal / "
           "schedule violation\n";
    return EXIT_SUCCESS;
  }
  const auto unknown = args.unknown_options(
      {"help", "list", "dataset", "mtx", "bin", "problem", "algo", "order",
       "balance", "side", "seed", "threads", "recolor", "stats-only",
       "deadline-ms", "max-rounds", "fault-plan", "trace-out", "report",
       "analyze", "audit", "model-check", "mc-seed", "mc-schedules",
       "mc-vthreads", "mc-replay", "mc-trace-out"});
  if (!unknown.empty() || !args.positional().empty()) {
    for (const auto& name : unknown)
      std::cerr << "unknown option --" << name << "\n";
    for (const auto& arg : args.positional())
      std::cerr << "unexpected argument " << arg << "\n";
    std::cerr << "see " << args.program() << " --help\n";
    return EXIT_FAILURE;
  }
  if (args.has("list")) {
    TextTable t;
    t.set_header({"name", "mimics", "symmetric", "d2gc"},
                 {TextTable::Align::kLeft, TextTable::Align::kLeft});
    for (const auto& d : dataset_registry())
      t.add_row({d.name, d.mimics, d.structurally_symmetric ? "yes" : "no",
                 d.used_for_d2gc ? "yes" : "no"});
    std::cout << t.to_string();
    return EXIT_SUCCESS;
  }

  std::cout << env_banner() << "\n";
  const std::string problem = args.get_string("problem", "bgpc");
  const std::string algo = args.get_string("algo", "N1-N2");
  const std::string dataset = args.get_string("dataset", "copapers_s");

  Coo coo;
  BipartiteGraph preloaded;
  bool have_preloaded = false;
  if (args.has("bin")) {
    preloaded = read_binary_bipartite_file(args.get_string("bin", ""));
    have_preloaded = true;
  } else if (args.has("mtx")) {
    coo = read_matrix_market_file(args.get_string("mtx", ""));
  } else {
    coo = find_dataset(dataset).make();
  }

  const int threads = static_cast<int>(args.get_int("threads", 0));
  const auto order_kind =
      ordering_from_string(args.get_string("order", "natural"));
  const std::string balance = args.get_string("balance", "U");

  // Robustness controls: watchdog budgets and the fault-injection plan.
  const double deadline_seconds =
      static_cast<double>(args.get_int("deadline-ms", 0)) / 1e3;
  const int max_rounds = static_cast<int>(args.get_int("max-rounds", 0));
  FaultPlan fault_plan;
  bool have_fault_plan = false;
  if (args.has("fault-plan")) {
    fault_plan = FaultPlan::parse(args.get_string("fault-plan", ""));
    have_fault_plan = true;
    std::cout << "fault plan       " << fault_plan.to_spec() << "\n";
  }
  // Speculative-race auditor (--audit): checks the partial coloring
  // after every conflict-removal pass; report printed after the run.
  audit::AuditContext audit_ctx;
  const bool want_audit = args.has("audit");
  // gcol-trace / run report (--trace-out / --report): one tracer for the
  // whole invocation, attached through the same options seam as the
  // auditor; artifacts written after the run.
  const std::string trace_out = args.get_string("trace-out", "");
  const std::string report_out = args.get_string("report", "");
  const bool want_obs = !trace_out.empty() || !report_out.empty();
  obs::Tracer tracer;
  // Everything the text report prints also lands in the registry — the
  // report path and the print path share one flattening.
  obs::MetricsRegistry metrics;
  const auto write_obs_artifacts = [&](obs::RunReport& rep) {
    if (want_audit) metrics.record_audit(audit_ctx.report());
    metrics.record_contracts();
    metrics.record_tracer(tracer);
    rep.set_metrics(metrics);
    rep.set_tracer(tracer, trace_out);
    if (!trace_out.empty()) {
      tracer.write_chrome_trace_file(trace_out);
      std::cout << "trace            " << trace_out << " ("
                << tracer.recorded() << " events, " << tracer.dropped()
                << " dropped)\n";
    }
    if (!report_out.empty()) {
      rep.write_file(report_out);
      std::cout << "report           " << report_out << "\n";
    }
  };
  const auto base_report = [&](const std::string& problem_name,
                               const std::string& algo_name) {
    obs::RunReport rep("color_tool");
    rep.set_option("problem", problem_name);
    rep.set_option("algo", algo_name);
    rep.set_option("order", args.get_string("order", "natural"));
    rep.set_option("balance", balance);
    rep.set_option("threads", threads);
    if (have_fault_plan) rep.set_option("fault_plan", fault_plan.to_spec());
    return rep;
  };
  // Structural input analysis (--analyze): report + typed rejection of
  // broken graphs before any kernel runs on them.
  const auto analyze_input = [&](const auto& graph) {
    if (!args.has("analyze")) return;
    const GraphAnalysis analysis = analyze_graph(graph);
    std::cout << analysis.to_string() << "\n";
    if (!analysis.ok())
      throw Error(ErrorCode::kBadInput,
                  "structural analysis found " +
                      std::to_string(analysis.total_issues) + " issue(s)");
  };
  const auto print_audit = [&]() {
    if (want_audit)
      std::cout << "audit            " << audit_ctx.report().summary()
                << "\n";
  };
  // Schedule exploration (--model-check): run the gcol-mc cooperative
  // model checker over the configured kernels instead of timing a run.
  const bool want_model_check = args.has("model-check");
  check::McOptions mc_opts;
  std::string mc_trace_out;
  if (want_model_check) {
    if (!check::kMcEnabled)
      throw Error(ErrorCode::kInvalidArgument,
                  "--model-check needs a GCOL_MC build "
                  "(cmake --preset modelcheck)");
    std::string mode = args.get_string("model-check", "dpor");
    if (mode.empty()) mode = "dpor";
    mc_opts.mode = check::explore_mode_from_string(mode);
    mc_opts.seed = static_cast<std::uint64_t>(args.get_int("mc-seed", 1));
    mc_opts.random_schedules =
        static_cast<std::size_t>(args.get_int("mc-schedules", 256));
    mc_opts.virtual_threads =
        static_cast<int>(args.get_int("mc-vthreads", 2));
    if (args.has("mc-replay")) {
      mc_opts.mode = check::ExploreMode::kReplay;
      mc_opts.replay =
          check::read_trace_file(args.get_string("mc-replay", ""));
    }
    mc_trace_out = args.get_string("mc-trace-out", "violation.mctrace");
    if (problem != "bgpc" && problem != "d2gc") {
      std::cerr << "--model-check covers bgpc and d2gc, not '" << problem
                << "'\n";
      return EXIT_FAILURE;
    }
  }
  const auto report_model_check = [&](const check::McResult& res) -> int {
    std::cout << "model check      " << res.summary() << "\n";
    if (res.clean()) return EXIT_SUCCESS;
    for (const auto& v : res.violations)
      std::cout << "violation        " << v.to_string() << "\n";
    if (!res.witness.empty()) {
      check::write_trace_file(res.witness, mc_trace_out);
      std::cout << "witness trace    " << mc_trace_out
                << " (reproduce with --mc-replay " << mc_trace_out << ")\n";
    }
    return 3;
  };
  const auto apply_robust_options = [&](ColoringOptions& options) {
    options.deadline_seconds = deadline_seconds;
    if (max_rounds > 0) options.max_rounds = max_rounds;
    if (have_fault_plan) options.fault_plan = &fault_plan;
    if (want_audit) options.auditor = &audit_ctx;
    if (want_obs) options.tracer = &tracer;
  };

  if (problem == "bgpc") {
    BipartiteGraph graph = have_preloaded
                               ? std::move(preloaded)
                               : build_bipartite(std::move(coo));
    if (args.get_string("side", "cols") == "rows")
      graph = transpose(graph);  // color matrix rows instead
    analyze_input(graph);
    std::cout << "instance         " << signature(graph) << "\n";
    if (args.has("stats-only")) {
      const DegreeStats nd = net_degree_stats(graph);
      double sumsq = 0;
      for (vid_t v = 0; v < graph.num_nets(); ++v)
        sumsq += static_cast<double>(graph.net_degree(v)) *
                 graph.net_degree(v);
      std::cout << "net degree       max " << nd.max << " mean " << nd.mean
                << " sd " << nd.stddev << "\n"
                << "sum(deg^2)       " << sumsq
                << "  (vertex-kernel first-round work)\n";
      return EXIT_SUCCESS;
    }
    const auto order = make_ordering(graph, order_kind);
    ColoringResult result;
    std::string name = algo;
    if (algo == "seq") {
      result = color_bgpc_sequential(graph, order);
    } else if (algo == "dsatur") {
      result = color_bgpc_dsatur(graph);
    } else {
      ColoringOptions options = bgpc_preset(algo);
      options.num_threads = threads;
      if (balance == "B1") options.balance = BalancePolicy::kB1;
      if (balance == "B2") options.balance = BalancePolicy::kB2;
      apply_robust_options(options);
      if (want_model_check)
        return report_model_check(
            check::model_check_bgpc(graph, options, order, mc_opts));
      name += " " + to_string(options.balance);
      result = color_bgpc_verified(graph, options, order);
    }
    if (want_model_check) {
      std::cerr << "--model-check needs a speculative preset, not '" << algo
                << "'\n";
      return EXIT_FAILURE;
    }
    if (const auto violation = check_bgpc(graph, result.colors)) {
      std::cerr << "INVALID coloring: " << violation->to_string() << "\n";
      return EXIT_FAILURE;
    }
    if (args.has("recolor")) {
      const color_t before = result.num_colors;
      result.num_colors = recolor_bgpc_to_fixpoint(graph, result.colors);
      std::cout << "recolor          " << before << " -> "
                << result.num_colors << " colors\n";
    }
    print_audit();
    print_report(result, name, graph.max_net_degree());
    if (want_obs) {
      obs::RunReport rep = base_report("bgpc", name);
      rep.set_graph(graph);
      rep.set_coloring(result);
      metrics.record_result(result);
      write_obs_artifacts(rep);
    }
  } else if (problem == "d2gc") {
    const Graph graph = build_graph(std::move(coo));
    std::cout << "instance         " << signature(graph) << "\n";
    analyze_input(graph);
    const auto order = make_ordering(graph, order_kind);
    ColoringResult result;
    if (algo == "seq") {
      result = color_d2gc_sequential(graph, order);
    } else {
      ColoringOptions options = d2gc_preset(algo);
      options.num_threads = threads;
      if (balance == "B1") options.balance = BalancePolicy::kB1;
      if (balance == "B2") options.balance = BalancePolicy::kB2;
      apply_robust_options(options);
      if (want_model_check)
        return report_model_check(
            check::model_check_d2gc(graph, options, order, mc_opts));
      result = color_d2gc_verified(graph, options, order);
    }
    if (want_model_check) {
      std::cerr << "--model-check needs a speculative preset, not 'seq'\n";
      return EXIT_FAILURE;
    }
    if (const auto violation = check_d2gc(graph, result.colors)) {
      std::cerr << "INVALID coloring: " << violation->to_string() << "\n";
      return EXIT_FAILURE;
    }
    print_audit();
    print_report(result, algo, graph.max_degree() + 1);
    if (want_obs) {
      obs::RunReport rep = base_report("d2gc", algo);
      rep.set_graph(graph);
      rep.set_coloring(result);
      metrics.record_result(result);
      write_obs_artifacts(rep);
    }
  } else if (problem == "d1gc") {
    const Graph graph = build_graph(std::move(coo));
    std::cout << "instance         " << signature(graph) << "\n";
    ColoringResult result;
    if (algo == "seq" || algo == "N1-N2") {  // default algo falls here
      result = color_d1gc_sequential(graph, make_ordering(graph, order_kind));
    } else if (algo == "spec") {
      ColoringOptions options = bgpc_preset("V-V-64D");
      options.num_threads = threads;
      if (balance == "B1") options.balance = BalancePolicy::kB1;
      if (balance == "B2") options.balance = BalancePolicy::kB2;
      result = color_d1gc(graph, options, make_ordering(graph, order_kind));
    } else if (algo == "jp") {
      result = color_d1gc_jones_plassmann(
          graph, static_cast<std::uint64_t>(args.get_int("seed", 1)),
          threads);
    } else if (algo == "dsatur") {
      result = color_d1gc_dsatur(graph);
    } else {
      std::cerr << "unknown d1gc algo: " << algo << "\n";
      return EXIT_FAILURE;
    }
    if (const auto violation = check_d1gc(graph, result.colors)) {
      std::cerr << "INVALID coloring: " << violation->to_string() << "\n";
      return EXIT_FAILURE;
    }
    print_report(result, algo, 1);
  } else {
    std::cerr << "unknown problem: " << problem << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

int main(int argc, char** argv) {
  // The robust contract at the process boundary: bad input is reported
  // with its error code and exit 2; anything else that escapes — a
  // watchdog-exceeded internal state or a broken invariant — exits 3.
  try {
    return run(argc, argv);
  } catch (const gcol::Error& e) {
    std::cerr << "error [" << gcol::to_string(e.code()) << "] " << e.what()
              << "\n";
    return e.is_input_error() ? 2 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error [unclassified] " << e.what() << "\n";
    return 3;
  }
}
