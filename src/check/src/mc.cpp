// gcol-mc cooperative scheduler: serializes the real OpenMP kernel
// threads through a run token so a Strategy can dictate the
// interleaving, and sweeps the audit invariants at every round
// boundary. See mc.hpp for the design overview.
#include "greedcolor/check/mc.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/parallel.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace gcol::check {

namespace {

// The armed checker. Kernels reach it lock-free; arming is exclusive
// (arm() throws when another context is installed).
std::atomic<McContext*> g_active{nullptr};

#if defined(GCOL_MC)
// Virtual-thread identity of the calling OpenMP worker, set for the
// lifetime of one McRegionScope. The null check is the whole fast path
// of mc_yield for unregistered threads (driver init loops, sequential
// cleanup, user code).
thread_local McContext* t_ctx = nullptr;
thread_local int t_tid = -1;
#endif

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv_mix(std::uint64_t& h, std::uint64_t x) {
  h = (h ^ x) * kFnvPrime;
}

}  // namespace

const char* to_string(AccessKind kind) {
  switch (kind) {
    case AccessKind::kStart: return "start";
    case AccessKind::kLoad: return "load";
    case AccessKind::kStore: return "store";
    case AccessKind::kExchange: return "exchange";
  }
  return "?";
}

const char* to_string(McViolationKind kind) {
  switch (kind) {
    case McViolationKind::kEscapedConflict: return "escaped-conflict";
    case McViolationKind::kQueueLoss: return "queue-loss";
    case McViolationKind::kColorBound: return "color-bound";
    case McViolationKind::kLivelock: return "livelock";
    case McViolationKind::kNondeterminism: return "nondeterminism";
    case McViolationKind::kEngineError: return "engine-error";
  }
  return "?";
}

std::string McViolation::to_string() const {
  std::ostringstream os;
  os << check::to_string(kind) << " round=" << round;
  if (a != kInvalidVertex) os << " a=" << a;
  if (b != kInvalidVertex) os << " b=" << b;
  if (via != kInvalidVertex) os << " via=" << via;
  if (color != kNoColor) os << " color=" << color;
  if (!detail.empty()) os << " (" << detail << ")";
  return os.str();
}

bool McViolation::same_shape(const McViolation& o) const {
  if (kind != o.kind || round != o.round || color != o.color) return false;
  return (a == o.a && b == o.b) || (a == o.b && b == o.a);
}

McContext* active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

void McContext::arm(Strategy& strategy, const McLimits& limits) {
  if (!kMcEnabled)
    raise(ErrorCode::kInvalidArgument, "gcol-mc",
          "this build lacks GCOL_MC; configure with -DGCOL_MC=ON "
          "(the modelcheck preset) to model-check");
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (armed_)
      raise(ErrorCode::kInvalidArgument, "gcol-mc",
            "McContext is already armed");
    strategy_ = &strategy;
    limits_ = limits;
    log_ = ExecutionLog{};
    round_ = 0;
    livelock_flagged_ = false;
    colors_ = nullptr;
    num_colors_ = 0;
    episode_open_ = false;
    expected_ = 0;
    registered_ = 0;
    running_ = -1;
    vthreads_.clear();
    armed_ = true;
    strategy_->begin_execution();
  }
  McContext* expect = nullptr;
  if (!g_active.compare_exchange_strong(expect, this,
                                        std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lk(mu_);
    armed_ = false;
    raise(ErrorCode::kInvalidArgument, "gcol-mc",
          "another McContext is already armed (one checked coloring "
          "at a time)");
  }
}

ExecutionLog McContext::disarm() {
  g_active.store(nullptr, std::memory_order_release);
  std::lock_guard<std::mutex> lk(mu_);
  armed_ = false;
  strategy_ = nullptr;
  ExecutionLog out = std::move(log_);
  log_ = ExecutionLog{};
  out.rounds = round_;
  cv_.notify_all();  // release any straggler (defensive; none expected)
  return out;
}

void McContext::add_violation(McViolation v) {
  std::lock_guard<std::mutex> lk(mu_);
  record_violation_nolock(std::move(v));
}

void McContext::record_violation_nolock(McViolation v) {
  ++log_.violation_count;
  if (log_.violations.size() < limits_.max_violations)
    log_.violations.push_back(std::move(v));
}

// ---- cooperative scheduler ------------------------------------------

void McContext::region_enter(int tid, int team_size) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!armed_) return;
  if (!episode_open_) {
    episode_open_ = true;
    expected_ = team_size > 0 ? team_size : 1;
    registered_ = 0;
    running_ = -1;
    vthreads_.assign(static_cast<std::size_t>(expected_), VThread{});
    log_.max_team = std::max(log_.max_team, expected_);
  }
  if (tid < 0 || tid >= expected_) {
    record_violation_nolock(
        {McViolationKind::kEngineError, round_, kInvalidVertex,
         kInvalidVertex, kInvalidVertex, kNoColor,
         "region_enter: tid outside the announced team"});
    return;
  }
  VThread& t = vthreads_[static_cast<std::size_t>(tid)];
  t.state = ThreadState::kWaiting;
  t.pending = PendingAccess{kInvalidVertex, AccessKind::kStart};
  ++registered_;
  if (registered_ == expected_) schedule_locked();
  cv_.wait(lk, [&] { return !armed_ || running_ == tid; });
  t.state = ThreadState::kRunning;
}

void McContext::region_exit(int tid) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!armed_ || !episode_open_) return;
  if (tid < 0 || tid >= expected_) return;
  vthreads_[static_cast<std::size_t>(tid)].state = ThreadState::kFinished;
  if (running_ == tid) running_ = -1;
  schedule_locked();
}

void McContext::yield_access(int tid, vid_t v, AccessKind kind) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!armed_ || !episode_open_) return;
  if (tid < 0 || tid >= expected_) return;
  VThread& t = vthreads_[static_cast<std::size_t>(tid)];
  t.pending = PendingAccess{v, kind};
  t.state = ThreadState::kWaiting;
  if (running_ == tid) running_ = -1;
  schedule_locked();
  cv_.wait(lk, [&] { return !armed_ || running_ == tid; });
  t.state = ThreadState::kRunning;
}

void McContext::schedule_locked() {
  // Hold every thread until the whole team announced itself: the first
  // decision point must see the full enabled set or DFS replay would
  // depend on OS arrival order.
  if (!episode_open_ || registered_ < expected_) return;

  enabled_scratch_.clear();
  bool any_unfinished = false;
  for (int i = 0; i < expected_; ++i) {
    const VThread& t = vthreads_[static_cast<std::size_t>(i)];
    if (t.state == ThreadState::kWaiting) enabled_scratch_.push_back(i);
    if (t.state != ThreadState::kFinished) any_unfinished = true;
  }
  if (enabled_scratch_.empty()) {
    if (!any_unfinished) {
      // Episode over: every virtual thread ran to the region barrier.
      episode_open_ = false;
      expected_ = 0;
      registered_ = 0;
      running_ = -1;
    }
    return;
  }

  pending_scratch_.assign(vthreads_.size(), PendingAccess{});
  for (std::size_t i = 0; i < vthreads_.size(); ++i)
    pending_scratch_[i] = vthreads_[i].pending;

  SchedulePoint p;
  p.step = log_.steps;
  p.decision_index = log_.decisions.size();
  p.enabled = &enabled_scratch_;
  p.pending = &pending_scratch_;

  int chosen;
  if (enabled_scratch_.size() == 1) {
    chosen = enabled_scratch_.front();
  } else {
    if (strategy_->wants_state_hash()) p.state_hash = state_hash_locked();
    chosen = strategy_->pick(p);
    if (std::find(enabled_scratch_.begin(), enabled_scratch_.end(),
                  chosen) == enabled_scratch_.end()) {
      record_violation_nolock(
          {McViolationKind::kNondeterminism, round_, kInvalidVertex,
           kInvalidVertex, kInvalidVertex, kNoColor,
           "strategy picked a thread that is not enabled"});
      chosen = enabled_scratch_.front();
    }
    if (log_.decisions.size() <
        static_cast<std::size_t>(limits_.max_decisions_per_run))
      log_.decisions.push_back(static_cast<std::uint8_t>(chosen));
    else
      log_.decision_overflow = true;
  }
  strategy_->on_execute(p, chosen);
  ++vthreads_[static_cast<std::size_t>(chosen)].steps;
  ++log_.steps;
  running_ = chosen;
  cv_.notify_all();
}

std::uint64_t McContext::state_hash_locked() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(round_));
  fnv_mix(h, static_cast<std::uint64_t>(expected_));
  for (const VThread& t : vthreads_) {
    fnv_mix(h, static_cast<std::uint64_t>(t.state));
    fnv_mix(h, static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(t.pending.v)));
    fnv_mix(h, static_cast<std::uint64_t>(t.pending.kind));
    fnv_mix(h, t.steps);
  }
  // All kernel threads are parked on the condvar here, so the plain
  // reads cannot race the kernels' relaxed atomics.
  for (std::size_t i = 0; i < num_colors_; ++i)
    fnv_mix(h, static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(colors_[i])));
  return h;
}

// ---- round-boundary invariant sweeps --------------------------------

void McContext::begin_round(int round, const color_t* c, std::size_t n) {
  if (!armed_) return;
  std::lock_guard<std::mutex> lk(mu_);
  round_ = round;
  colors_ = c;
  num_colors_ = n;
  if (round > convergence_round_limit && !livelock_flagged_) {
    livelock_flagged_ = true;
    record_violation_nolock(
        {McViolationKind::kLivelock, round, kInvalidVertex, kInvalidVertex,
         kInvalidVertex, kNoColor,
         "speculative loop exceeded the convergence round limit"});
  }
}

template <class V>
void McContext::check_queue_and_bound(const V& view, const color_t* c,
                                      const std::vector<vid_t>& next_queue) {
  const auto n = static_cast<std::size_t>(view.num_vertices());
  // Work-queue no-loss: every uncolored non-isolated vertex must be in
  // the next round's queue, or it will never be colored.
  queue_mark_.assign(n, 0);
  for (const vid_t u : next_queue)
    if (u >= 0 && static_cast<std::size_t>(u) < n)
      queue_mark_[static_cast<std::size_t>(u)] = 1;
  for (vid_t u = 0; u < view.num_vertices(); ++u) {
    if (c[static_cast<std::size_t>(u)] != kNoColor) continue;
    if (view.nets(u).empty()) continue;
    if (queue_mark_[static_cast<std::size_t>(u)]) continue;
    record_violation_nolock(
        {McViolationKind::kQueueLoss, round_, u, kInvalidVertex,
         kInvalidVertex, kNoColor, "uncolored vertex missing from the "
                                   "next work queue"});
  }

  // Forbidden-set / first-fit consistency: the engine sizes its marker
  // sets to the color bound + 2; any color at or past that capacity
  // means a first-fit scan escaped its forbidden set (a later
  // MarkerSet::insert of it would write out of bounds).
  const color_t cap = view.color_bound(1) + 2;
  for (std::size_t u = 0; u < n; ++u) {
    const color_t col = c[u];
    if (col == kNoColor || col < cap) continue;
    record_violation_nolock(
        {McViolationKind::kColorBound, round_, static_cast<vid_t>(u),
         kInvalidVertex, kInvalidVertex, col,
         "color at/above the driver's marker capacity"});
  }
}

void McContext::end_round(const BipartiteView& view, const color_t* c,
                          const std::vector<vid_t>& next_queue) {
  if (!armed_) return;
  std::lock_guard<std::mutex> lk(mu_);
  const BipartiteGraph& g = view.g;

  // Escaped conflicts: two colored vertices of one net sharing a
  // color after conflict removal. O(deg^2) per net — fixtures are tiny.
  for (vid_t v = 0; v < g.num_nets(); ++v) {
    const auto vt = g.vtxs(v);
    for (std::size_t i = 0; i < vt.size(); ++i) {
      const color_t ci = c[static_cast<std::size_t>(vt[i])];
      if (ci == kNoColor) continue;
      for (std::size_t j = i + 1; j < vt.size(); ++j) {
        if (vt[i] == vt[j]) continue;  // multiplicity edge
        if (c[static_cast<std::size_t>(vt[j])] != ci) continue;
        record_violation_nolock(
            {McViolationKind::kEscapedConflict, round_,
             std::min(vt[i], vt[j]), std::max(vt[i], vt[j]), v, ci,
             "distance-2 neighbors share a color after conflict removal"});
      }
    }
  }
  check_queue_and_bound(view, c, next_queue);
}

void McContext::end_round(const ClosedView& view, const color_t* c,
                          const std::vector<vid_t>& next_queue) {
  if (!armed_) return;
  std::lock_guard<std::mutex> lk(mu_);
  const Graph& g = view.g;

  // Escaped conflicts under distance-2 adjacency: v vs its neighbors
  // (distance 1) and every neighbor pair through v (distance 2).
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    const color_t cv = c[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const color_t ci = c[static_cast<std::size_t>(nb[i])];
      if (cv != kNoColor && nb[i] != v && ci == cv && nb[i] > v) {
        record_violation_nolock(
            {McViolationKind::kEscapedConflict, round_, v, nb[i],
             kInvalidVertex, cv,
             "adjacent vertices share a color after conflict removal"});
      }
      if (ci == kNoColor) continue;
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        if (nb[i] == nb[j]) continue;
        if (c[static_cast<std::size_t>(nb[j])] != ci) continue;
        record_violation_nolock(
            {McViolationKind::kEscapedConflict, round_,
             std::min(nb[i], nb[j]), std::max(nb[i], nb[j]), v, ci,
             "distance-2 neighbors share a color after conflict removal"});
      }
    }
  }
  check_queue_and_bound(view, c, next_queue);
}

void McContext::end_round(const Distance1View& view, const color_t* c,
                          const std::vector<vid_t>& next_queue) {
  if (!armed_) return;
  std::lock_guard<std::mutex> lk(mu_);
  const Graph& g = view.g;

  // Escaped conflicts under distance-1 adjacency, each edge once.
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const color_t cv = c[static_cast<std::size_t>(v)];
    if (cv == kNoColor) continue;
    for (const vid_t u : g.neighbors(v)) {
      if (u <= v || c[static_cast<std::size_t>(u)] != cv) continue;
      record_violation_nolock(
          {McViolationKind::kEscapedConflict, round_, v, u, kInvalidVertex,
           cv, "adjacent vertices share a color after conflict removal"});
    }
  }
  check_queue_and_bound(view, c, next_queue);
}

// ---- kernel-side hooks ----------------------------------------------

#if defined(GCOL_MC)

McRegionScope::McRegionScope() {
  McContext* m = active();
  if (m == nullptr) return;
  const int tid = current_thread();
#if defined(_OPENMP)
  const int team = omp_get_num_threads();
#else
  const int team = 1;
#endif
  t_ctx = m;
  t_tid = tid;
  engaged_ = m;
  m->region_enter(tid, team);
}

McRegionScope::~McRegionScope() {
  if (engaged_ == nullptr) return;
  engaged_->region_exit(t_tid);
  t_ctx = nullptr;
  t_tid = -1;
}

void mc_yield(vid_t v, AccessKind kind) {
  if (t_ctx != nullptr) t_ctx->yield_access(t_tid, v, kind);
}

#endif  // GCOL_MC

}  // namespace gcol::check
