// Tracing-overhead gate: the cost of gcol-trace when compiled in.
//
// Runs the same N1-N2 BGPC workload with and without a Tracer attached
// (same GCOL_TRACE=ON build — the macro cost is one null check per site
// when detached, ring pushes when attached) and compares medians. The
// subsystem's contract is that attaching a tracer costs <= ~3% wall
// time; the gate enforces a much wider band (default 25%) because
// tier-1 runs on arbitrary shared boxes where scheduler noise alone
// exceeds 3%. Interleaves the two modes so thermal/frequency drift
// hits both equally.
//
// Exit 0 when median(traced) <= median(untraced) * (1 + band), 1
// otherwise. --reps N (default 9) and --max-overhead-pct P (default
// 25) tune the gate.
#include <algorithm>
#include <iostream>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/util/argparse.hpp"

namespace {

using namespace gcol;

double run_once(const BipartiteGraph& g, obs::Tracer* tracer) {
  ColoringOptions opt = bgpc_preset("N1-N2");
  opt.num_threads = 4;
  opt.tracer = tracer;
  // The kernel times itself; no extra clock needed here.
  return color_bgpc(g, opt).total_seconds * 1e3;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 9));
  const double band =
      static_cast<double>(args.get_int("max-overhead-pct", 25)) / 100.0;

  const BipartiteGraph g =
      build_bipartite(gen_clique_union(8000, 2800, 2, 120, 1.7, 77));
  std::cout << "obs_overhead: " << (obs::kTraceEnabled ? "GCOL_TRACE=ON"
                                                       : "GCOL_TRACE=OFF")
            << " build, " << reps << " reps per mode\n";

  obs::Tracer tracer;
  run_once(g, nullptr);   // warmup
  run_once(g, &tracer);
  std::vector<double> plain_ms, traced_ms;
  for (int i = 0; i < reps; ++i) {
    plain_ms.push_back(run_once(g, nullptr));
    tracer.clear();
    traced_ms.push_back(run_once(g, &tracer));
  }

  const double base = median(plain_ms);
  const double traced = median(traced_ms);
  const double overhead = traced / base - 1.0;
  std::cout << "untraced median  " << base << " ms\n"
            << "traced median    " << traced << " ms (" << tracer.recorded()
            << " events last run)\n"
            << "overhead         " << overhead * 100.0 << "% (gate "
            << band * 100.0 << "%)\n";
  if (traced > base * (1.0 + band)) {
    std::cout << "FAIL: tracing overhead above the gate band\n";
    return 1;
  }
  std::cout << "tracing overhead within the band\n";
  return 0;
}
