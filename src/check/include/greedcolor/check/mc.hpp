// gcol-mc: deterministic schedule exploration for the speculative
// coloring kernels.
//
// The paper's engines (Algs. 4-8) race on the shared color array by
// design and trust conflict removal to catch every clash. The auditor
// (greedcolor/analyze/audit.hpp) checks that property on whatever
// interleavings the OS scheduler happens to produce; ThreadSanitizer
// cannot check it at all (every access is a relaxed atomic). gcol-mc
// closes the remaining gap: it runs the *real* kernel bodies under a
// controlled cooperative scheduler and explores interleavings
// systematically, so "conflict removal catches every clash" becomes a
// property checked over the whole schedule space of a small fixture,
// not over one lucky run.
//
// Mechanism: in GCOL_MC builds every color accessor in
// src/core/src/kernels_common.hpp calls GCOL_MC_YIELD() before the
// access, and every kernel parallel region registers its threads with
// GCOL_MC_REGION(). While a checker is armed, exactly one kernel
// thread runs at a time; at each yield the armed Strategy decides who
// runs next. Execution is then a deterministic function of the
// decision sequence — libgomp's dynamic loop dispatch, the shared work
// queue's push order, and every speculative read/write all derive from
// it — which is what makes exhaustive DFS, DPOR-lite sleep sets, and
// bit-for-bit schedule replay possible. Without GCOL_MC both macros
// compile to nothing and the hot path is byte-identical to a release
// build.
//
// One checked coloring at a time: the kernels reach the context
// through a process-global registry (armed by McContext::arm, cleared
// by disarm), exactly like the auditor's AuditScope. This is
// checked-build tooling, not a hot-path feature.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::check {

#if defined(GCOL_MC)
inline constexpr bool kMcEnabled = true;
#else
inline constexpr bool kMcEnabled = false;
#endif

/// What a virtual thread is about to do at a schedule point. kStart is
/// the pseudo-access of a freshly registered thread (its first real
/// access is not known yet).
enum class AccessKind : std::uint8_t { kStart, kLoad, kStore, kExchange };

[[nodiscard]] const char* to_string(AccessKind kind);

struct PendingAccess {
  vid_t v = kInvalidVertex;
  AccessKind kind = AccessKind::kStart;
};

/// Dependency relation for the DPOR-lite reduction: two pending
/// accesses conflict iff they touch the same vertex and at least one
/// writes. kStart conflicts with nothing.
[[nodiscard]] inline bool accesses_conflict(const PendingAccess& a,
                                            const PendingAccess& b) {
  if (a.kind == AccessKind::kStart || b.kind == AccessKind::kStart)
    return false;
  if (a.v != b.v) return false;
  return a.kind != AccessKind::kLoad || b.kind != AccessKind::kLoad;
}

enum class McViolationKind : std::uint8_t {
  kEscapedConflict,  ///< two colored distance-2 neighbors share a color
                     ///< after conflict removal (the audit invariant)
  kQueueLoss,        ///< an uncolored vertex was not re-queued
  kColorBound,       ///< a color at/above the driver's marker capacity
  kLivelock,         ///< speculative loop failed to converge in bound
  kNondeterminism,   ///< replayed decision not enabled (broken replay)
  kEngineError,      ///< the engine threw during a checked execution
};

[[nodiscard]] const char* to_string(McViolationKind kind);

struct McViolation {
  McViolationKind kind = McViolationKind::kEscapedConflict;
  int round = 0;
  vid_t a = kInvalidVertex;
  vid_t b = kInvalidVertex;
  vid_t via = kInvalidVertex;
  color_t color = kNoColor;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
  /// Replay equivalence: same kind/round/color and the same unordered
  /// vertex pair (detail text is allowed to differ).
  [[nodiscard]] bool same_shape(const McViolation& o) const;
};

/// One scheduling juncture, as shown to a Strategy. `pending` is
/// indexed by virtual-thread id (the OpenMP tid); only tids listed in
/// `enabled` are runnable.
struct SchedulePoint {
  std::uint64_t step = 0;            ///< steps executed so far this run
  std::uint64_t decision_index = 0;  ///< decisions (>=2 enabled) so far
  const std::vector<int>* enabled = nullptr;
  const std::vector<PendingAccess>* pending = nullptr;
  std::uint64_t state_hash = 0;  ///< colors + thread positions; only
                                 ///< computed when wants_state_hash()
};

/// Schedule-decision policy. pick() is consulted only at real decision
/// points (>= 2 enabled threads); on_execute() observes every step,
/// forced or chosen, so reductions can track dependencies.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual void begin_execution() {}
  [[nodiscard]] virtual bool wants_state_hash() const { return false; }
  /// Must return a member of *p.enabled.
  virtual int pick(const SchedulePoint& p) = 0;
  virtual void on_execute(const SchedulePoint& p, int chosen) {
    (void)p;
    (void)chosen;
  }
  /// Advance to the next schedule; false when the space is exhausted.
  virtual bool next_execution() { return false; }
};

struct McLimits {
  /// Hard cap on recorded decisions per execution (runaway guard; the
  /// execution still runs to completion, the overflow is just flagged).
  std::uint64_t max_decisions_per_run = 1u << 20;
  /// Cap on materialized violations per execution (counting continues).
  std::size_t max_violations = 64;
};

/// Everything one checked execution produced.
struct ExecutionLog {
  std::vector<std::uint8_t> decisions;  ///< chosen tid per decision point
  std::vector<McViolation> violations;
  std::uint64_t steps = 0;
  std::uint64_t violation_count = 0;  ///< uncapped tally
  int max_team = 0;                   ///< largest region team observed
  int rounds = 0;
  bool decision_overflow = false;

  [[nodiscard]] bool violating() const { return violation_count > 0; }
};

/// The schedule-exploration context. Attach to ColoringOptions::checker
/// (mirroring ColoringOptions::auditor); the engine calls begin_round /
/// end_round, the kernels' region scopes and accessor yields drive the
/// cooperative scheduler. Arm/disarm bracket one explored execution.
class McContext {
 public:
  McContext() = default;
  McContext(const McContext&) = delete;
  McContext& operator=(const McContext&) = delete;

  // ---- controller (explorer) side ----

  /// Install this context as the process-global checker and reset the
  /// per-execution state. Throws Error(kInvalidArgument) when the build
  /// lacks GCOL_MC (the kernels would never yield and every "explored"
  /// schedule would silently be the free-running one).
  void arm(Strategy& strategy, const McLimits& limits = {});

  /// Clear the global registry and return this execution's log.
  ExecutionLog disarm();

  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Record a violation found outside the per-round sweeps (e.g. the
  /// explorer mapping a sequential fallback to kLivelock).
  void add_violation(McViolation v);

  /// Rounds after which the speculative loop counts as livelocked.
  int convergence_round_limit = 32;

  // ---- driver side (the speculative engine's round loop) ----

  void begin_round(int round, const color_t* c, std::size_t n);
  /// Audit the partial coloring after conflict removal + fault
  /// injection. `next_queue` is the work queue of the following round
  /// (the no-loss invariant: every uncolored vertex must be in it).
  void end_round(const BipartiteView& view, const color_t* c,
                 const std::vector<vid_t>& next_queue);
  void end_round(const ClosedView& view, const color_t* c,
                 const std::vector<vid_t>& next_queue);
  void end_round(const Distance1View& view, const color_t* c,
                 const std::vector<vid_t>& next_queue);

  // ---- kernel side (region scopes and accessor yields) ----

  void region_enter(int tid, int team_size);
  void region_exit(int tid);
  void yield_access(int tid, vid_t v, AccessKind kind);

 private:
  enum class ThreadState : std::uint8_t {
    kAbsent,
    kWaiting,
    kRunning,
    kFinished
  };
  struct VThread {
    ThreadState state = ThreadState::kAbsent;
    PendingAccess pending;
    std::uint64_t steps = 0;
  };

  /// Pick and wake the next runnable thread (mu_ held). No-op until the
  /// whole team registered; closes the episode when everyone finished.
  void schedule_locked();
  [[nodiscard]] std::uint64_t state_hash_locked() const;
  void record_violation_nolock(McViolation v);
  /// The view-independent end_round checks (mu_ held): work-queue
  /// no-loss and the marker-capacity color bound.
  template <class V>
  void check_queue_and_bound(const V& view, const color_t* c,
                             const std::vector<vid_t>& next_queue);

  std::mutex mu_;
  std::condition_variable cv_;
  Strategy* strategy_ = nullptr;
  McLimits limits_;
  bool armed_ = false;

  // Episode (one kernel parallel region) state, all under mu_.
  bool episode_open_ = false;
  int expected_ = 0;
  int registered_ = 0;
  int running_ = -1;
  std::vector<VThread> vthreads_;
  std::vector<int> enabled_scratch_;
  std::vector<PendingAccess> pending_scratch_;

  // Execution-wide state.
  ExecutionLog log_;
  int round_ = 0;
  bool livelock_flagged_ = false;
  const color_t* colors_ = nullptr;
  std::size_t num_colors_ = 0;
  std::vector<std::uint8_t> queue_mark_;  // end_round scratch
};

/// The globally armed context, or nullptr (kernel-side fast path).
[[nodiscard]] McContext* active() noexcept;

#if defined(GCOL_MC)
/// Registers the calling OpenMP worker as a virtual thread for the
/// duration of one kernel parallel region. Place right after the
/// region's `current_thread()` call; compiles to nothing without
/// GCOL_MC.
class McRegionScope {
 public:
  McRegionScope();
  ~McRegionScope();
  McRegionScope(const McRegionScope&) = delete;
  McRegionScope& operator=(const McRegionScope&) = delete;

 private:
  McContext* engaged_ = nullptr;
};

/// Accessor schedule point; no-op unless the calling thread is a
/// registered virtual thread of the armed checker.
void mc_yield(vid_t v, AccessKind kind);
#endif

}  // namespace gcol::check
