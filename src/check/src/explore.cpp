// gcol-mc exploration strategies and drivers.
//
// Everything here is re-execution based: a strategy never rewinds the
// engine, it just steers the next full coloring run. The DFS keeps a
// stack of decision nodes and replays the prefix below the current
// frontier on every run; because a checked execution is a deterministic
// function of its decision sequence, the replayed prefix lands in
// exactly the state it left.
#include "greedcolor/check/explore.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/timer.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace gcol::check {

namespace {

constexpr std::uint64_t bit(int tid) { return std::uint64_t{1} << tid; }

/// Depth-first enumeration of the decision tree, optionally with the
/// sleep-set reduction (kDpor) or state-hash pruning (kExhaustive).
///
/// Sleep sets (Godefroid): when the DFS backtracks from candidate c at
/// a node, c joins the sleep set of the node's remaining branches; a
/// sleeping thread is woken the moment an executed access is dependent
/// (same vertex, at least one write) with its pending access. A branch
/// whose thread is still asleep would only replay an already-explored
/// interleaving with independent accesses permuted, so it is skipped.
/// Round boundaries are global barriers every execution passes, so the
/// per-round invariant sweeps still see one representative of every
/// Mazurkiewicz trace.
class DfsStrategy final : public Strategy {
 public:
  DfsStrategy(bool sleep_sets, bool hash_prune)
      : sleep_sets_(sleep_sets), hash_prune_(hash_prune) {}

  void begin_execution() override {
    depth_ = 0;
    sleep_ = 0;
  }

  [[nodiscard]] bool wants_state_hash() const override {
    return hash_prune_;
  }

  int pick(const SchedulePoint& p) override {
    if (depth_ < stack_.size()) {
      // Replay below the frontier: sleep set = value at first visit
      // plus every sibling already explored at this node.
      Node& nd = stack_[depth_];
      sleep_ = nd.sleep_entry;
      for (std::size_t k = 0; k < nd.cur; ++k)
        sleep_ |= bit(nd.candidates[k]);
      ++depth_;
      return nd.candidates[nd.cur];
    }
    Node nd;
    nd.sleep_entry = sleep_;
    for (const int tid : *p.enabled)
      if (!sleep_sets_ || (sleep_ & bit(tid)) == 0)
        nd.candidates.push_back(tid);
    if (nd.candidates.empty()) {
      // Every enabled thread is asleep: this state is redundant, but a
      // run in flight cannot be aborted — take any branch and do not
      // branch further here.
      nd.candidates.push_back(p.enabled->front());
      sleep_pruned_ += p.enabled->size() - 1;
    } else {
      sleep_pruned_ += p.enabled->size() - nd.candidates.size();
    }
    if (hash_prune_ && nd.candidates.size() > 1 &&
        !seen_hashes_.insert(p.state_hash).second) {
      // Pre-decision state already expanded once: keep a single branch.
      hash_pruned_ += nd.candidates.size() - 1;
      nd.candidates.resize(1);
    }
    stack_.push_back(std::move(nd));
    ++depth_;
    return stack_.back().candidates.front();
  }

  void on_execute(const SchedulePoint& p, int chosen) override {
    if (!sleep_sets_ || sleep_ == 0) return;
    sleep_ &= ~bit(chosen);
    const PendingAccess& acc = (*p.pending)[static_cast<std::size_t>(chosen)];
    std::uint64_t rest = sleep_;
    while (rest != 0) {
      const int tid = std::countr_zero(rest);
      rest &= rest - 1;
      if (accesses_conflict(acc,
                            (*p.pending)[static_cast<std::size_t>(tid)]))
        sleep_ &= ~bit(tid);
    }
  }

  bool next_execution() override {
    while (!stack_.empty()) {
      Node& nd = stack_.back();
      if (nd.cur + 1 < nd.candidates.size()) {
        ++nd.cur;
        return true;
      }
      stack_.pop_back();
    }
    return false;
  }

  [[nodiscard]] std::uint64_t sleep_pruned() const { return sleep_pruned_; }
  [[nodiscard]] std::uint64_t hash_pruned() const { return hash_pruned_; }

 private:
  struct Node {
    std::vector<int> candidates;
    std::size_t cur = 0;
    std::uint64_t sleep_entry = 0;
  };

  bool sleep_sets_;
  bool hash_prune_;
  std::vector<Node> stack_;
  std::size_t depth_ = 0;
  std::uint64_t sleep_ = 0;
  std::unordered_set<std::uint64_t> seen_hashes_;
  std::uint64_t sleep_pruned_ = 0;
  std::uint64_t hash_pruned_ = 0;
};

/// Seeded schedule fuzzing: every run draws from splitmix64 streams
/// derived from (seed, run index), so a seed pins the whole campaign.
class RandomStrategy final : public Strategy {
 public:
  RandomStrategy(std::uint64_t seed, std::uint64_t budget)
      : seed_(seed), budget_(budget > 0 ? budget : 1) {}

  void begin_execution() override {
    state_ = seed_ + (run_ + 1) * 0x9e3779b97f4a7c15ULL;
  }

  int pick(const SchedulePoint& p) override {
    return (*p.enabled)[static_cast<std::size_t>(
        next() % p.enabled->size())];
  }

  bool next_execution() override {
    ++run_;
    return run_ < budget_;
  }

 private:
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_;
  std::uint64_t budget_;
  std::uint64_t run_ = 0;
  std::uint64_t state_ = 0;
};

/// Drive one execution from a recorded decision sequence. Once the
/// recording runs out (a deliberately truncated prefix during witness
/// minimization) the lowest enabled tid is taken — deterministic, so a
/// prefix still pins a unique execution. A recorded choice that is not
/// enabled is surfaced by the scheduler as kNondeterminism.
class ReplayStrategy final : public Strategy {
 public:
  explicit ReplayStrategy(std::vector<std::uint8_t> choices)
      : choices_(std::move(choices)) {}

  void begin_execution() override { pos_ = 0; }

  int pick(const SchedulePoint& p) override {
    if (pos_ < choices_.size()) {
      const int want = choices_[pos_++];
      return want;  // scheduler validates membership in enabled
    }
    return p.enabled->front();
  }

 private:
  std::vector<std::uint8_t> choices_;
  std::size_t pos_ = 0;
};

/// One checked execution; engine exceptions become kEngineError.
ExecutionLog run_checked(McContext& ctx, Strategy& strategy,
                         const std::function<void(McContext&)>& run_one) {
  ctx.arm(strategy);
  try {
    run_one(ctx);
  } catch (const std::exception& e) {
    ctx.add_violation({McViolationKind::kEngineError, 0, kInvalidVertex,
                       kInvalidVertex, kInvalidVertex, kNoColor, e.what()});
  }
  return ctx.disarm();
}

std::vector<std::uint8_t> prefix(const std::vector<std::uint8_t>& full,
                                 std::size_t len) {
  return {full.begin(),
          full.begin() + static_cast<std::ptrdiff_t>(len)};
}

/// Shrink the witness to the shortest decision prefix that still
/// reproduces the same violation shape, then re-record that execution's
/// full decision list so the returned trace is self-contained.
void minimize_witness(McContext& ctx, McResult& res,
                      const std::function<void(McContext&)>& run_one) {
  const McViolation target = res.violations.front();
  const std::vector<std::uint8_t> full = res.witness.choices;

  auto reproduces = [&](std::size_t len, ExecutionLog* out) {
    ReplayStrategy replay(prefix(full, len));
    ExecutionLog log = run_checked(ctx, replay, run_one);
    ++res.schedules_explored;
    const bool hit =
        std::any_of(log.violations.begin(), log.violations.end(),
                    [&](const McViolation& v) { return v.same_shape(target); });
    if (hit && out != nullptr) *out = std::move(log);
    return hit;
  };

  std::size_t best = full.size();
  if (reproduces(0, nullptr)) {
    best = 0;
  } else if (full.size() > 1) {
    // Invariant: reproduces(lo) failed, reproduces(hi) assumed to hold
    // (hi = full.size() is the recorded execution itself).
    std::size_t lo = 0;
    std::size_t hi = full.size();
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (reproduces(mid, nullptr))
        hi = mid;
      else
        lo = mid;
    }
    best = hi;
  }

  ExecutionLog final_log;
  if (reproduces(best, &final_log)) {
    res.violations = std::move(final_log.violations);
    res.witness.choices = std::move(final_log.decisions);
  }
  // else: non-monotone shrink (a shorter prefix diverged); keep the
  // original full witness, which reproduces by construction.
}

std::unique_ptr<Strategy> make_strategy(const McOptions& opts) {
  switch (opts.mode) {
    case ExploreMode::kExhaustive:
      return std::make_unique<DfsStrategy>(false, opts.hash_prune);
    case ExploreMode::kDpor:
      return std::make_unique<DfsStrategy>(true, false);
    case ExploreMode::kRandom:
      return std::make_unique<RandomStrategy>(opts.seed,
                                              opts.random_schedules);
    case ExploreMode::kReplay:
      return std::make_unique<ReplayStrategy>(opts.replay.choices);
  }
  raise(ErrorCode::kInvalidArgument, "gcol-mc", "unknown explore mode");
}

}  // namespace

const char* to_string(ExploreMode mode) {
  switch (mode) {
    case ExploreMode::kExhaustive: return "exhaustive";
    case ExploreMode::kDpor: return "dpor";
    case ExploreMode::kRandom: return "random";
    case ExploreMode::kReplay: return "replay";
  }
  return "?";
}

ExploreMode explore_mode_from_string(const std::string& name) {
  if (name == "exhaustive") return ExploreMode::kExhaustive;
  if (name == "dpor") return ExploreMode::kDpor;
  if (name == "random") return ExploreMode::kRandom;
  if (name == "replay") return ExploreMode::kReplay;
  raise(ErrorCode::kInvalidArgument, "gcol-mc",
        "unknown explore mode '" + name +
            "' (want exhaustive|dpor|random|replay)");
}

std::string McResult::summary() const {
  std::ostringstream os;
  os << "schedules=" << schedules_explored
     << " decisions=" << decisions_total << " team=" << max_team
     << " sleep-pruned=" << sleep_pruned << " hash-pruned=" << hash_pruned
     << (complete ? " complete" : "")
     << (budget_exhausted ? " budget-exhausted" : "");
  if (violations.empty()) {
    os << " clean";
  } else {
    os << " VIOLATION: " << violations.front().to_string()
       << " [witness: " << witness.choices.size() << " decisions]";
  }
  return os.str();
}

McResult explore(McContext& ctx, const McOptions& opts,
                 const std::function<void(McContext&)>& run_one) {
  if (!kMcEnabled)
    raise(ErrorCode::kInvalidArgument, "gcol-mc",
          "this build lacks GCOL_MC; configure with -DGCOL_MC=ON "
          "(the modelcheck preset) to model-check");
#if defined(_OPENMP)
  // The scheduler needs the team size it was announced; dynamic team
  // shrinking would change the schedule space between runs.
  omp_set_dynamic(0);
#endif
  ctx.convergence_round_limit = opts.convergence_round_limit;
  const std::unique_ptr<Strategy> strategy = make_strategy(opts);
  auto* dfs = dynamic_cast<DfsStrategy*>(strategy.get());

  McResult res;
  WallTimer timer;
  bool space_exhausted = false;
  for (;;) {
    ExecutionLog log = run_checked(ctx, *strategy, run_one);
    ++res.schedules_explored;
    res.decisions_total += log.decisions.size();
    res.max_team = std::max(res.max_team, log.max_team);
    const bool violated = log.violating();
    if (violated && res.violations.empty()) {
      res.violations = log.violations;
      res.witness.choices = log.decisions;
    }
    if (violated && opts.stop_on_violation) break;
    if (opts.mode == ExploreMode::kReplay) {
      space_exhausted = true;
      break;
    }
    if (!strategy->next_execution()) {
      space_exhausted = true;
      break;
    }
    if (res.schedules_explored >= opts.max_schedules) {
      res.budget_exhausted = true;
      break;
    }
    if (opts.time_budget_seconds > 0.0 &&
        timer.seconds() >= opts.time_budget_seconds) {
      res.budget_exhausted = true;
      break;
    }
  }
  if (dfs != nullptr) {
    res.sleep_pruned = dfs->sleep_pruned();
    res.hash_pruned = dfs->hash_pruned();
  }
  if (opts.mode == ExploreMode::kRandom) {
    // Sampling never proves coverage; a finished budget is just that.
    if (space_exhausted) res.budget_exhausted = true;
  } else {
    res.complete = space_exhausted;
  }

  if (!res.violations.empty() && opts.minimize &&
      opts.mode != ExploreMode::kReplay)
    minimize_witness(ctx, res, run_one);
  return res;
}

namespace {

/// Shared setup for the model_check_* entry points: pin the virtual
/// team size, fail diverging schedules fast, and surface a sequential
/// fallback as the livelock it is under exploration.
ColoringOptions checked_options(const ColoringOptions& base,
                                const McOptions& opts, McContext& ctx) {
  ColoringOptions opt = base;
  opt.num_threads = std::max(2, opts.virtual_threads);
  opt.max_rounds =
      std::min(opt.max_rounds, std::max(1, opts.convergence_round_limit));
  opt.checker = &ctx;
  return opt;
}

std::string witness_label(const char* engine, const ColoringOptions& opt,
                          const McOptions& opts) {
  std::ostringstream os;
  os << engine << " " << opt.name << " mode=" << to_string(opts.mode)
     << " vthreads=" << std::max(2, opts.virtual_threads)
     << " seed=" << opts.seed;
  return os.str();
}

}  // namespace

McResult model_check_bgpc(const BipartiteGraph& g,
                          const ColoringOptions& base,
                          const std::vector<vid_t>& order,
                          const McOptions& opts) {
  McContext ctx;
  const ColoringOptions opt = checked_options(base, opts, ctx);
  McResult res =
      explore(ctx, opts, [&g, &opt, &order](McContext& c) {
        const ColoringResult r = color_bgpc(g, opt, order);
        if (r.sequential_fallback)
          c.add_violation({McViolationKind::kLivelock, r.rounds,
                           kInvalidVertex, kInvalidVertex, kInvalidVertex,
                           kNoColor,
                           "speculative loop hit its round cap; "
                           "sequential cleanup engaged"});
      });
  res.witness.label = witness_label("bgpc", opt, opts);
  return res;
}

McResult model_check_d2gc(const Graph& g, const ColoringOptions& base,
                          const std::vector<vid_t>& order,
                          const McOptions& opts) {
  McContext ctx;
  const ColoringOptions opt = checked_options(base, opts, ctx);
  McResult res =
      explore(ctx, opts, [&g, &opt, &order](McContext& c) {
        const ColoringResult r = color_d2gc(g, opt, order);
        if (r.sequential_fallback)
          c.add_violation({McViolationKind::kLivelock, r.rounds,
                           kInvalidVertex, kInvalidVertex, kInvalidVertex,
                           kNoColor,
                           "speculative loop hit its round cap; "
                           "sequential cleanup engaged"});
      });
  res.witness.label = witness_label("d2gc", opt, opts);
  return res;
}

}  // namespace gcol::check
