// bench_e2e: one workload of the end-to-end benchmark per process.
//
// A job is what a user of the library waits for: a matrix file on disk
// (or an in-memory pattern) -> CSR graph -> vertex order -> verified
// coloring -> report file. It is timed from the ingest call until the
// report file is written. Jobs run as a closed loop: one client submits
// the next job only after the previous one completes, and every job
// uses min(4, nproc) engine threads. After each job, outside its timed
// region, the coloring is re-checked with check_bgpc / check_d2gc.
//
// Only public entry points are called, so each layer is measured from
// outside. With --trace-out, obs::Tracer spans around those calls give
// the per-layer numbers; the engine's own tracer stays detached.
// bench/e2e/run.py drives this binary and README.md explains the
// workloads and metrics.
//
//   bench_e2e --workload W --seed S --seconds T --work-dir D --json OUT
//             [--trace-out TRACE] [--smoke]
//   bench_e2e --check-datasets --json OUT
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/options.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/binary_io.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/datasets.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/obs/json.hpp"
#include "greedcolor/obs/report.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/order/ordering.hpp"
#include "greedcolor/robust/verified.hpp"
#include "greedcolor/util/argparse.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/prng.hpp"

#ifndef GCOL_E2E_BUILD_TYPE
#define GCOL_E2E_BUILD_TYPE "unknown"
#endif
#ifndef GCOL_E2E_OPTIONS
#define GCOL_E2E_OPTIONS ""
#endif

namespace gcol::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using obs::Json;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Inputs

/// Ids shuffled within aligned blocks of kRelabelBlock; identity for
/// seed 0.
constexpr vid_t kRelabelBlock = 64;

std::vector<vid_t> local_permutation(vid_t n, Xoshiro256& rng, bool shuffle) {
  std::vector<vid_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), vid_t{0});
  if (!shuffle) return perm;
  for (vid_t lo = 0; lo < n; lo += kRelabelBlock) {
    const vid_t len = std::min(kRelabelBlock, n - lo);
    for (vid_t i = len; i > 1; --i)
      std::swap(perm[static_cast<std::size_t>(lo + i - 1)],
                perm[static_cast<std::size_t>(lo) +
                     rng.bounded(static_cast<std::uint64_t>(i))]);
  }
  return perm;
}

/// Registry dataset `name` for `seed`. Seed 0 is dataset_registry()
/// bit-for-bit. Other seeds relabel rows and columns within small
/// aligned blocks (one permutation for both sides of a square matrix,
/// so symmetry holds): the same sparsity statistics, locality and
/// lower bound, but another vertex order, so other greedy colorings and
/// conflicts. Regenerating the heavy-tailed stand-ins instead would move
/// a job's cost by up to a third between seeds (copapers_s nnz spans
/// 0.56M-0.80M), more than any bound the benchmark can hold.
Coo make_dataset(const std::string& name, std::uint64_t seed) {
  Coo coo = find_dataset(name).make();
  Xoshiro256 rng(mix64(seed));
  const bool shuffle = seed != 0;
  const std::vector<vid_t> rows = local_permutation(coo.num_rows, rng, shuffle);
  const std::vector<vid_t> cols =
      coo.num_rows == coo.num_cols
          ? rows
          : local_permutation(coo.num_cols, rng, shuffle);
  for (vid_t& r : coo.rows) r = rows[static_cast<std::size_t>(r)];
  for (vid_t& c : coo.cols) c = cols[static_cast<std::size_t>(c)];
  return coo;
}

/// small-mem pattern i of `count`: four generator families in turn, with
/// nnz spread evenly over roughly 5k-60k. The sizes do not depend on the
/// seed, only the structure does: sizes drawn from the seed moved the
/// total work and the resident inputs of a run by ~3% between seeds.
Coo make_small_pattern(std::size_t i, std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed) ^ mix64(0x5A11 + i));
  const std::uint64_t gen_seed = rng();
  // 97 is odd, so i -> 97 i mod count is a bijection for a power-of-two
  // count, and 97 = 1 (mod 4) spreads every family over the whole range.
  const auto target = static_cast<vid_t>(
      5000 + 55000 * ((i * 97) % count) / std::max<std::size_t>(1, count - 1));
  switch (i % 4) {
    case 0: {
      const vid_t rows = target / 25;
      return gen_random_bipartite(rows, rows * 2, target, gen_seed);
    }
    case 1: {
      PowerLawBipartiteParams p;
      p.rows = target / 16;
      p.cols = p.rows * 3;
      p.min_deg = 4;
      p.max_deg = 300;
      p.alpha = 1.2;
      p.col_skew = 0.3;
      p.seed = gen_seed;
      return gen_powerlaw_bipartite(p);
    }
    case 2:
      return gen_block_rows(target / 40, 40, 120, 0.25, gen_seed);
    default:
      return gen_preferential_attachment(target / 13, 6, gen_seed);
  }
}

// ---------------------------------------------------------------------------
// Workloads

enum class Ingest { kBin, kMemory };
enum class Problem { kBgpc, kD2gc };

struct WorkloadSpec {
  std::string name;
  Ingest ingest = Ingest::kBin;
  Problem problem = Problem::kBgpc;
  std::vector<std::string> datasets;  ///< empty: small-mem patterns
  std::vector<std::string> presets;   ///< "" = ColoringOptions{} defaults
};

/// job_ms_tail is p90 over the jobs of the typical pass (see
/// typical_pass). The job count is reported beside it.
constexpr double kTailPct = 90.0;

constexpr std::size_t kSmallPatterns = 256;
constexpr std::size_t kSmokeSmallPatterns = 16;

/// There is no MatrixMarket or smallest-last workload: where one thread's
/// compute was most of a job (the parse 74%, the ordering 84%), runs
/// slowed by 30-35% for minutes at a time on a busy shared host, more
/// than any bound can hold between two sets of runs of the same code.
/// README.md has the measurements.
std::vector<WorkloadSpec> workloads() {
  return {
      {"bin-bgpc", Ingest::kBin, Problem::kBgpc, dataset_names(),
       bgpc_preset_names()},
      {"bin-d2gc", Ingest::kBin, Problem::kD2gc, dataset_names(true),
       d2gc_preset_names()},
      {"small-mem", Ingest::kMemory, Problem::kBgpc, {}, {""}},
  };
}

/// Library defaults plus only the paper's schedule fields of the preset,
/// so a changed library default (forbidden-set kind, ...) reaches every
/// job without editing the benchmark.
ColoringOptions job_options(const WorkloadSpec& w, const std::string& preset,
                            int threads) {
  ColoringOptions o;
  if (!preset.empty()) {
    const ColoringOptions p = w.problem == Problem::kBgpc
                                  ? bgpc_preset(preset)
                                  : d2gc_preset(preset);
    o.name = p.name;
    o.net_color_rounds = p.net_color_rounds;
    o.net_conflict_rounds = p.net_conflict_rounds;
    o.chunk_size = p.chunk_size;
    o.queue = p.queue;
    o.balance = p.balance;
  }
  o.num_threads = threads;
  return o;
}

// ---------------------------------------------------------------------------
// One job

struct Input {
  std::string name;
  std::string path;  ///< empty: in-memory pattern
  Coo pattern;       ///< small-mem only
  std::uint64_t bytes = 0;  ///< what the ingest layer reads
  vid_t vertices = 0;       ///< vertices to color
};

/// Everything a job leaves behind for the untimed check and the metrics.
struct JobRecord {
  std::size_t input = 0;
  std::size_t preset = 0;
  bool traced = false;
  bool ok = false;
  double ms = 0.0;
  double nnz = 0.0;
  double colors_over_lb = 0.0;
  bool degraded = false;
  double repaired = 0.0;
  double vertices = 0.0;
  double engine_ms = 0.0;
  double color_ms = 0.0;
  double conflict_ms = 0.0;
  double rounds = 0.0;
  double r1_conflicts = 0.0;
  double colored = 0.0;
  double edges = 0.0;
  double probes = 0.0;
  std::string error;
};

BipartiteGraph build(Coo coo, const BipartiteGraph*) {
  return build_bipartite(std::move(coo));
}
Graph build(Coo coo, const Graph*) { return build_graph(std::move(coo)); }
BipartiteGraph load_bin(const std::string& path, const BipartiteGraph*) {
  return read_binary_bipartite_file(path);
}
Graph load_bin(const std::string& path, const Graph*) {
  return read_binary_graph_file(path);
}
ColoringResult color_verified(const BipartiteGraph& g,
                              const ColoringOptions& o,
                              const std::vector<vid_t>& order) {
  return color_bgpc_verified(g, o, order);
}
ColoringResult color_verified(const Graph& g, const ColoringOptions& o,
                              const std::vector<vid_t>& order) {
  return color_d2gc_verified(g, o, order);
}
ColoringResult color_sequential(const BipartiteGraph& g,
                                const std::vector<vid_t>& order) {
  return color_bgpc_sequential(g, order);
}
ColoringResult color_sequential(const Graph& g,
                                const std::vector<vid_t>& order) {
  return color_d2gc_sequential(g, order);
}
std::optional<ColoringViolation> check(const BipartiteGraph& g,
                                       const std::vector<color_t>& colors) {
  return check_bgpc(g, colors);
}
std::optional<ColoringViolation> check(const Graph& g,
                                       const std::vector<color_t>& colors) {
  return check_d2gc(g, colors);
}
/// The trivial lower bound on colors: L for BGPC, maxdeg+1 for D2GC.
vid_t lower_bound(const BipartiteGraph& g) { return g.max_net_degree(); }
vid_t lower_bound(const Graph& g) { return g.max_degree() + 1; }
eid_t nonzeros(const BipartiteGraph& g) { return g.num_edges(); }
eid_t nonzeros(const Graph& g) { return g.num_adjacency_entries(); }

struct JobContext {
  const WorkloadSpec* workload = nullptr;
  std::vector<ColoringOptions> options;  ///< one per preset
  std::string report_path;
  /// Sequential-baseline ms per input, filled by the first traced job on
  /// that input (core.speedup_vs_seq); negative until then.
  std::vector<double> seq_ms;
};

template <typename G>
G ingest(const Input& in, Ingest kind, Coo pattern, obs::Tracer* tracer) {
  const G* tag = nullptr;
  if (kind == Ingest::kBin) {
    obs::SpanGuard span(tracer, "io.bin.load");
    return load_bin(in.path, tag);
  }
  obs::SpanGuard span(tracer, "graph.build");
  return build(std::move(pattern), tag);
}

/// Runs one job and its untimed check. `pattern` is the small-mem input,
/// copied by the caller outside the timed region.
template <typename G>
JobRecord run_job_as(JobContext& ctx, const Input& in, std::size_t input,
                     std::size_t preset, std::uint64_t id, Coo pattern,
                     obs::Tracer* tracer) {
  const WorkloadSpec& w = *ctx.workload;
  const ColoringOptions& options = ctx.options[preset];
  JobRecord rec;
  rec.input = input;
  rec.preset = preset;
  rec.traced = tracer != nullptr;

  const auto t0 = Clock::now();
  if (tracer != nullptr) tracer->begin("job", id);
  G g = ingest<G>(in, w.ingest, std::move(pattern), tracer);
  std::vector<vid_t> order;
  {
    obs::SpanGuard span(tracer, "order.make");
    order = make_ordering(g, OrderingKind::kNatural);
  }
  ColoringResult r;
  {
    obs::SpanGuard span(tracer, "core.verified");
    r = color_verified(g, options, order);
  }
  {
    obs::SpanGuard span(tracer, "report.write");
    obs::RunReport report("bench_e2e");
    report.set_option("workload", w.name);
    report.set_option("input", in.name);
    report.set_option("preset", options.name);
    report.set_option("order", to_string(OrderingKind::kNatural));
    report.set_option("balance", to_string(options.balance));
    report.set_option("threads", options.num_threads);
    report.set_graph(g);
    report.set_coloring(r);
    report.write_file(ctx.report_path);
  }
  if (tracer != nullptr) tracer->end("job");
  rec.ms = ms_since(t0);

  // Untimed: the independent check and the bookkeeping.
  const vid_t lb = std::max<vid_t>(1, lower_bound(g));
  if (const auto violation = check(g, r.colors)) {
    rec.error = in.name + " " + options.name + ": " + violation->to_string();
  } else if (r.num_colors < lb) {
    rec.error = in.name + " " + options.name + ": fewer colors than the bound";
  } else if (std::filesystem::file_size(ctx.report_path) == 0) {
    rec.error = in.name + ": empty report file";
  }
  // Removed, not overwritten by the next job: ext4 starts writing a file
  // back to disk when it is truncated and rewritten, and that traffic
  // would land inside later jobs' timed regions.
  std::filesystem::remove(ctx.report_path);
  rec.ok = rec.error.empty();
  rec.nnz = static_cast<double>(nonzeros(g));
  rec.vertices = static_cast<double>(g.num_vertices());
  rec.colors_over_lb = static_cast<double>(r.num_colors) / lb;
  rec.degraded = r.degraded;
  rec.repaired = static_cast<double>(r.repaired_vertices);
  rec.engine_ms = r.total_seconds * 1e3;
  rec.rounds = r.rounds;
  for (const IterationStats& it : r.iterations) {
    rec.color_ms += it.color_seconds * 1e3;
    rec.conflict_ms += it.conflict_seconds * 1e3;
    rec.colored += static_cast<double>(it.color_counters.colored);
    rec.edges += static_cast<double>(it.color_counters.edges_visited +
                                     it.conflict_counters.edges_visited);
    rec.probes += static_cast<double>(it.color_counters.color_probes +
                                      it.conflict_counters.color_probes);
  }
  if (!r.iterations.empty())
    rec.r1_conflicts = static_cast<double>(r.iterations.front().conflicts);

  if (tracer != nullptr && ctx.seq_ms[input] < 0.0) {
    const auto ts = Clock::now();
    const ColoringResult seq = color_sequential(g, order);
    ctx.seq_ms[input] = ms_since(ts);
    if (check(g, seq.colors))
      rec.error = in.name + ": invalid sequential baseline coloring";
    rec.ok = rec.error.empty();
  }
  return rec;
}

JobRecord run_job(JobContext& ctx, const std::vector<Input>& inputs,
                  std::size_t input, std::size_t preset, std::uint64_t id,
                  obs::Tracer* tracer) {
  const Input& in = inputs[input];
  Coo pattern = in.pattern;  // untimed copy; empty for file inputs
  try {
    return ctx.workload->problem == Problem::kBgpc
               ? run_job_as<BipartiteGraph>(ctx, in, input, preset, id,
                                            std::move(pattern), tracer)
               : run_job_as<Graph>(ctx, in, input, preset, id,
                                   std::move(pattern), tracer);
  } catch (const std::exception& e) {
    JobRecord rec;
    rec.input = input;
    rec.preset = preset;
    rec.error = in.name + ": " + e.what();
    return rec;
  }
}

// ---------------------------------------------------------------------------
// Set-up: generate the inputs, write their files, warm up

std::vector<Input> prepare_inputs(const WorkloadSpec& w, std::uint64_t seed,
                                  bool smoke, const std::string& dir) {
  std::vector<Input> inputs;
  if (w.ingest == Ingest::kMemory) {
    const std::size_t count = smoke ? kSmokeSmallPatterns : kSmallPatterns;
    for (std::size_t i = 0; i < count; ++i) {
      Input in;
      in.name = "mem-" + std::to_string(i);
      in.pattern = make_small_pattern(i, count, seed);
      in.vertices = in.pattern.num_cols;
      in.bytes = static_cast<std::uint64_t>(in.pattern.nnz()) * 2 *
                 sizeof(vid_t);
      inputs.push_back(std::move(in));
    }
    return inputs;
  }
  for (const std::string& name : w.datasets) {
    if (smoke && name != "nlpkkt_s" && name != "afshell_s") continue;
    Input in;
    in.name = name;
    Coo coo = make_dataset(name, seed);
    in.vertices = coo.num_cols;
    in.path = dir + "/" + name + ".bin";
    // A repeated set-up removes the previous file first, for the same
    // reason run_job_as removes each report.
    std::filesystem::remove(in.path);
    if (w.problem == Problem::kBgpc)
      write_binary_file(in.path, build_bipartite(std::move(coo)));
    else
      write_binary_file(in.path, build_graph(std::move(coo)));
    in.bytes = std::filesystem::file_size(in.path);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

/// One untimed job per preset on the smallest input, the one with the
/// fewest vertices to color.
std::vector<std::string> warm_up(JobContext& ctx,
                                 const std::vector<Input>& inputs) {
  std::vector<std::string> errors;
  std::size_t smallest = 0;
  for (std::size_t i = 1; i < inputs.size(); ++i)
    if (inputs[i].vertices < inputs[smallest].vertices) smallest = i;
  for (std::size_t p = 0; p < ctx.options.size(); ++p) {
    const JobRecord rec = run_job(ctx, inputs, smallest, p, 0, nullptr);
    if (!rec.ok) errors.push_back("warm-up " + rec.error);
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Host-drift index

/// A fixed sort plus a threaded triad that touch none of the library:
/// timed before each pass so a slow pass can be told apart from a slow
/// host. Reported as host.calib_ms, never gated.
class Calibrator {
 public:
  explicit Calibrator(int threads)
      : threads_(threads),
        keys_(std::size_t{1} << 17),
        a_(std::size_t{1} << 18, 0.0),
        b_(a_.size(), 1.0),
        c_(a_.size(), 2.0) {
    Xoshiro256 rng(0xCA11B);
    for (auto& k : keys_) k = static_cast<std::uint32_t>(rng());
  }

  double run_ms() {
    const auto t0 = Clock::now();
    sorted_ = keys_;
    std::sort(sorted_.begin(), sorted_.end());
    const auto n = static_cast<std::int64_t>(a_.size());
    double* a = a_.data();
    const double* b = b_.data();
    const double* c = c_.data();
    const int threads = threads_;
    for (int rep = 0; rep < 16; ++rep) {
#pragma omp parallel for schedule(static) num_threads(threads) \
    default(none) firstprivate(a, b, c, n, rep)
      for (std::int64_t i = 0; i < n; ++i) a[i] = b[i] + rep * c[i];
    }
    return ms_since(t0);
  }

 private:
  int threads_;
  std::vector<std::uint32_t> keys_, sorted_;
  std::vector<double> a_, b_, c_;
};

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile: always one job's own time, never a blend of
/// two inputs of different sizes.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Process-level helpers

/// Resets the kernel's peak-RSS mark so ru_maxrss covers the measured
/// jobs rather than set-up. Returns false where the reset is unavailable.
bool reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

/// Sum of span durations per name, in ms. All spans are recorded by the
/// bench's own thread, so begin/end pairs nest.
std::map<std::string, double> span_ms(const obs::Tracer& tracer) {
  std::map<std::string, double> total;
  std::vector<obs::TraceEvent> open;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.phase == obs::TraceEvent::Phase::kBegin) {
      open.push_back(ev);
    } else if (ev.phase == obs::TraceEvent::Phase::kEnd && !open.empty()) {
      total[open.back().name] +=
          static_cast<double>(ev.ts_ns - open.back().ts_ns) / 1e6;
      open.pop_back();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Modes

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string work_dir;
  std::string json_out;
  std::string trace_out;
  bool smoke = false;
};

void write_json(const std::string& path, const Json& doc) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("bench_e2e: cannot write " + path);
  doc.dump(os);
  os << '\n';
}

struct TypicalJob {
  double ms = 0.0;
  double nnz = 0.0;
};

/// The typical pass: each (input, preset) job of the job list at its
/// median time over the run's passes. The timing metrics all describe
/// it. Runs make whole passes over one job list, and a host that steals
/// vCPU time in bursts slows a few repeats of a job, rarely the median.
/// On small-mem, p90 over every job sample instead spread by 40% between
/// runs.
std::vector<TypicalJob> typical_pass(const std::vector<JobRecord>& jobs) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> ms;
  std::map<std::pair<std::size_t, std::size_t>, double> nnz;
  for (const JobRecord& j : jobs) {
    if (!j.ok) continue;
    ms[{j.input, j.preset}].push_back(j.ms);
    nnz[{j.input, j.preset}] = j.nnz;
  }
  std::vector<TypicalJob> pass;
  for (const auto& [key, times] : ms) pass.push_back({median(times), nnz[key]});
  return pass;
}

double mnnz_per_s(const std::vector<JobRecord>& jobs) {
  double total_nnz = 0.0, total_ms = 0.0;
  for (const TypicalJob& t : typical_pass(jobs)) {
    total_nnz += t.nnz;
    total_ms += t.ms;
  }
  return total_nnz / 1e6 / (total_ms / 1e3);
}

Json json_array(const std::vector<double>& values) {
  Json a = Json::array();
  for (const double v : values) a.push_back(v);
  return a;
}

/// Median job time and colors per registry dataset, for reading a run.
Json per_input_summary(const std::vector<Input>& inputs,
                       const std::vector<JobRecord>& jobs) {
  Json rows = Json::array();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<double> ms, ratio;
    double nnz = 0.0;
    for (const JobRecord& j : jobs) {
      if (j.input != i || !j.ok) continue;
      ms.push_back(j.ms);
      ratio.push_back(j.colors_over_lb);
      nnz = j.nnz;
    }
    Json row = Json::object();
    row.set("input", inputs[i].name);
    row.set("bytes", inputs[i].bytes);
    row.set("nnz", nnz);
    row.set("job_ms_p50", median(ms));
    row.set("colors_over_lb", geomean(ratio));
    rows.push_back(std::move(row));
  }
  return rows;
}

Json end_to_end_metrics(const std::vector<JobRecord>& jobs, double setup_s,
                        double rss_mb) {
  std::vector<double> ms;
  for (const TypicalJob& t : typical_pass(jobs)) ms.push_back(t.ms);
  std::vector<double> ratio;
  for (const JobRecord& j : jobs)
    if (j.ok) ratio.push_back(j.colors_over_lb);
  Json m = Json::object();
  m.set("mnnz_per_s", metric(mnnz_per_s(jobs), "Mnnz/s"));
  m.set("job_ms_p50", metric(median(ms), "ms"));
  m.set("job_ms_tail", metric(percentile(ms, kTailPct), "ms"));
  m.set("colors_over_lb", metric(geomean(ratio), "ratio"));
  m.set("setup_s", metric(setup_s, "s"));
  m.set("peak_rss_mb", metric(rss_mb, "MB"));
  return m;
}

Json layer_metrics(const JobContext& ctx, const std::vector<Input>& inputs,
                   const std::vector<JobRecord>& jobs,
                   const std::map<std::string, double>& spans,
                   const std::vector<double>& calib_ms) {
  double n = 0, vertices = 0, bytes = 0, engine = 0, color = 0, conflict = 0;
  double rounds = 0, r1 = 0, colored = 0, edges = 0, probes = 0;
  double repaired = 0, degraded = 0;
  std::map<std::size_t, std::vector<double>> engine_by_input;
  std::vector<JobRecord> traced, untraced;
  for (const JobRecord& j : jobs) {
    if (!j.ok) continue;
    engine_by_input[j.input].push_back(j.engine_ms);
    (j.traced ? traced : untraced).push_back(j);
    if (!j.traced) continue;
    n += 1;
    vertices += j.vertices;
    bytes += static_cast<double>(inputs[j.input].bytes);
    engine += j.engine_ms;
    color += j.color_ms;
    conflict += j.conflict_ms;
    rounds += j.rounds;
    r1 += j.r1_conflicts;
    colored += j.colored;
    edges += j.edges;
    probes += j.probes;
    repaired += j.repaired;
    degraded += j.degraded ? 1.0 : 0.0;
  }
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
  };
  const double job = span("job");
  const double ingest = span("io.bin.load") + span("graph.build");
  const double verified = span("core.verified");
  const double verify = verified - engine;
  const double covered =
      ingest + span("order.make") + verified + span("report.write");
  std::vector<double> speedups;
  for (const auto& [input, engine_ms] : engine_by_input)
    if (ctx.seq_ms[input] > 0.0)
      speedups.push_back(ctx.seq_ms[input] / median(engine_ms));

  Json m = Json::object();
  m.set("ingest.ms", metric(ingest / n, "ms"));
  m.set("ingest.mb_per_s", metric(bytes / 1e6 / (ingest / 1e3), "MB/s"));
  m.set("io.bin.load.share", metric(span("io.bin.load") / job, "frac"));
  m.set("graph.build.share", metric(span("graph.build") / job, "frac"));
  m.set("core.engine.ms", metric(engine / n, "ms"));
  m.set("core.engine.share", metric(engine / job, "frac"));
  m.set("core.color.ms", metric(color / n, "ms"));
  m.set("core.conflict.ms", metric(conflict / n, "ms"));
  m.set("core.rounds", metric(rounds / n, "count"));
  m.set("core.r1_conflict_frac", metric(r1 / vertices, "frac"));
  m.set("core.colored_per_vertex", metric(colored / vertices, "ratio"));
  m.set("core.edges_visited", metric(edges / n, "count"));
  m.set("core.color_probes", metric(probes / n, "count"));
  m.set("core.speedup_vs_seq", metric(geomean(speedups), "x"));
  m.set("robust.verify.ms", metric(verify / n, "ms"));
  m.set("robust.verify.share", metric(verify / job, "frac"));
  m.set("robust.repaired_vertices", metric(repaired / n, "count"));
  m.set("robust.degraded_frac", metric(degraded / n, "frac"));
  m.set("report.write.ms", metric(span("report.write") / n, "ms"));
  m.set("report.write.share", metric(span("report.write") / job, "frac"));
  m.set("host.calib_ms", metric(median(calib_ms), "ms"));
  m.set("trace.overhead_frac",
        metric(1.0 - mnnz_per_s(traced) / mnnz_per_s(untraced), "frac"));
  m.set("trace.coverage", metric(covered / job, "frac"));
  return m;
}

int run_workload(const Config& cfg) {
  const std::vector<WorkloadSpec> all = workloads();
  const auto found =
      std::find_if(all.begin(), all.end(),
                   [&](const WorkloadSpec& w) { return w.name == cfg.workload; });
  if (found == all.end()) {
    std::cerr << "bench_e2e: unknown workload '" << cfg.workload << "'\n";
    return 1;
  }
  const WorkloadSpec& w = *found;
  const int threads = std::min(4, hardware_threads());
  const bool traced = !cfg.trace_out.empty();
  std::filesystem::create_directories(cfg.work_dir);

  JobContext ctx;
  ctx.workload = &w;
  for (const std::string& p : w.presets)
    ctx.options.push_back(job_options(w, p, threads));
  ctx.report_path = cfg.work_dir + "/report.json";

  // Set-up, repeated so setup_s is a median: generation, file writes and
  // one warm-up job per preset.
  const int setup_reps = cfg.smoke ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<Input> inputs;
  std::vector<std::string> failures;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    inputs = prepare_inputs(w, cfg.seed, cfg.smoke, cfg.work_dir);
    ctx.seq_ms.assign(inputs.size(), -1.0);
    for (std::string& e : warm_up(ctx, inputs)) failures.push_back(std::move(e));
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  Calibrator calib(threads);
  std::unique_ptr<obs::Tracer> tracer;
  if (traced) {
    obs::TracerOptions topt;
    topt.ring_capacity = std::size_t{1} << 18;
    tracer = std::make_unique<obs::Tracer>(topt);
  }

  // Whole passes over the job list, in one seeded order, until the time
  // is up. A traced run alternates traced and untraced passes so it can
  // report its own overhead; a smoke run makes as few passes as it can.
  std::vector<std::pair<std::size_t, std::size_t>> job_list;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    for (std::size_t p = 0; p < ctx.options.size(); ++p)
      job_list.emplace_back(i, p);
  if (cfg.seed != 0) {
    Xoshiro256 rng(mix64(cfg.seed ^ 0x0DE5));
    for (std::size_t i = job_list.size(); i > 1; --i)
      std::swap(job_list[i - 1], job_list[rng.bounded(i)]);
  }
  const bool rss_reset = reset_peak_rss();
  std::vector<JobRecord> jobs;
  std::vector<double> calib_ms;
  // Two passes at least: a bin-bgpc pass takes about as long as a whole
  // run, and runs of one pass and of two then alternated with the host's
  // speed.
  const int min_passes = 2;
  const auto t_run = Clock::now();
  for (int pass = 0;; ++pass) {
    if (pass >= min_passes &&
        (cfg.smoke || ms_since(t_run) >= cfg.seconds * 1e3))
      break;
    calib_ms.push_back(calib.run_ms());
    const bool trace_pass = traced && pass % 2 == 0;
    for (const auto& [input, preset] : job_list) {
      JobRecord rec = run_job(ctx, inputs, input, preset, jobs.size() + 1,
                              trace_pass ? tracer.get() : nullptr);
      if (!rec.ok && failures.size() < 20) failures.push_back(rec.error);
      jobs.push_back(std::move(rec));
    }
  }
  const double measured_s = ms_since(t_run) / 1e3;
  const double rss_mb = peak_rss_mb();

  std::size_t failed = 0;
  for (const JobRecord& j : jobs) failed += j.ok ? 0 : 1;

  Json doc = Json::object();
  doc.set("schema", "gcol-bench-e2e-v1");
  doc.set("workload", w.name);
  doc.set("seed", cfg.seed);
  doc.set("smoke", cfg.smoke);
  doc.set("threads", threads);
  Json fp = Json::object();
  fp.set("compiler", compiler_id());
  fp.set("build_type", GCOL_E2E_BUILD_TYPE);
  fp.set("gcol_options", GCOL_E2E_OPTIONS);
  fp.set("nproc", hardware_threads());
  doc.set("fingerprint", std::move(fp));
  doc.set("attempted", static_cast<std::uint64_t>(jobs.size()));
  doc.set("failed", static_cast<std::uint64_t>(failed));
  Json errs = Json::array();
  for (const std::string& e : failures) errs.push_back(e);
  doc.set("errors", std::move(errs));
  doc.set("inputs", static_cast<std::uint64_t>(inputs.size()));
  doc.set("jobs_per_pass", static_cast<std::uint64_t>(job_list.size()));
  doc.set("passes", static_cast<std::uint64_t>(calib_ms.size()));
  doc.set("measured_s", measured_s);
  doc.set("tail_pct", kTailPct);
  doc.set("rss_reset", rss_reset);
  doc.set("setup_s_reps", json_array(setup_s));
  doc.set("calib_ms", json_array(calib_ms));
  std::vector<JobRecord> untraced_jobs;
  for (const JobRecord& j : jobs)
    if (!j.traced) untraced_jobs.push_back(j);
  if (w.ingest != Ingest::kMemory)
    doc.set("per_input", per_input_summary(inputs, untraced_jobs));
  doc.set("tail_samples",
          static_cast<std::uint64_t>(typical_pass(untraced_jobs).size()));
  doc.set("metrics",
          end_to_end_metrics(untraced_jobs, median(setup_s), rss_mb));
  if (traced) {
    doc.set("trace_dropped", tracer->dropped());
    doc.set("layers", layer_metrics(ctx, inputs, jobs, span_ms(*tracer),
                                    calib_ms));
    tracer->write_chrome_trace_file(cfg.trace_out);
  }
  write_json(cfg.json_out, doc);
  return failed == 0 && failures.empty() ? 0 : 3;
}

/// Seed 0 must reproduce the registry bit-for-bit. Seed 1 must give
/// another matrix with the same nonzeros, degree bounds and symmetry.
int check_datasets(const Config& cfg) {
  Json rows = Json::array();
  bool ok = true;
  for (const DatasetInfo& info : dataset_registry()) {
    const Coo coo0 = make_dataset(info.name, 0);
    const Coo coo1 = make_dataset(info.name, 1);
    const BipartiteGraph g0 = build_bipartite(coo0);
    const BipartiteGraph g1 = build_bipartite(coo1);
    bool seed0_matches =
        obs::fingerprint(g0) == obs::fingerprint(load_bipartite(info.name));
    bool seed1_same_shape = g1.num_edges() == g0.num_edges() &&
                            g1.max_net_degree() == g0.max_net_degree() &&
                            g1.max_vertex_degree() == g0.max_vertex_degree();
    if (info.structurally_symmetric) {
      seed0_matches = seed0_matches &&
                      obs::fingerprint(build_graph(coo0)) ==
                          obs::fingerprint(load_graph(info.name));
      seed1_same_shape =
          seed1_same_shape && coo1.is_structurally_symmetric();
    }
    const bool seed1_changes = obs::fingerprint(g1) != obs::fingerprint(g0);
    ok = ok && seed0_matches && seed1_same_shape && seed1_changes;
    Json row = Json::object();
    row.set("dataset", info.name);
    row.set("seed0_matches_registry", seed0_matches);
    row.set("seed1_changes", seed1_changes);
    row.set("seed1_same_shape", seed1_same_shape);
    rows.push_back(std::move(row));
  }
  Json doc = Json::object();
  doc.set("schema", "gcol-bench-e2e-datasets-v1");
  doc.set("ok", ok);
  doc.set("datasets", std::move(rows));
  write_json(cfg.json_out, doc);
  return ok ? 0 : 3;
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);
  Config cfg;
  cfg.workload = args.get_string("workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  cfg.seconds = args.get_double("seconds", 10.0);
  cfg.work_dir = args.get_string("work-dir", "");
  cfg.json_out = args.get_string("json", "");
  cfg.trace_out = args.get_string("trace-out", "");
  cfg.smoke = args.has("smoke");
  const bool datasets = args.has("check-datasets");
  const auto unknown = args.unknown_options(
      {"workload", "seed", "seconds", "work-dir", "json", "trace-out",
       "smoke", "check-datasets"});
  if (!unknown.empty() || cfg.json_out.empty() ||
      (!datasets && (cfg.workload.empty() || cfg.work_dir.empty()))) {
    std::cerr << "usage: bench_e2e --workload W --seed S --seconds T "
                 "--work-dir D --json OUT [--trace-out TRACE] [--smoke]\n"
                 "       bench_e2e --check-datasets --json OUT\n";
    return 1;
  }
  return datasets ? check_datasets(cfg) : run_workload(cfg);
}

}  // namespace
}  // namespace gcol::e2e

int main(int argc, char** argv) {
  try {
    return gcol::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
