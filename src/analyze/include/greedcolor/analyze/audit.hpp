// Speculative-race auditor: turns "we believe the races are benign"
// into a checked property.
//
// The paper's engines (Algs. 4-8) deliberately race on the shared color
// array: coloring kernels read neighbor colors without synchronization
// and a trailing conflict-removal pass is trusted to catch every real
// conflict. The *sanctioned* outcome of that race is an overturned
// write — a speculative color that conflict removal uncolors before the
// round ends. The *unsanctioned* outcome is an escaped conflict: two
// distance-2 neighbors holding the same color after conflict removal
// with neither re-queued. ThreadSanitizer cannot tell the two apart
// (both are relaxed-atomic accesses and data-race-free by the memory
// model), and a logic bug in conflict removal — or a stale write
// landing after the pass, as FaultPlan injects — produces no race at
// all. The auditor checks the semantic property directly.
//
// Two layers:
//  * A per-round partial-coloring sweep (end_round) that works in every
//    build: after each conflict-removal pass, no two colored
//    neighbors under the engine's view (distance <= 2 for BGPC/D2GC,
//    distance 1 for D1GC) may share a color (uncolored / re-queued
//    vertices are exempt — that is exactly the speculation the paper
//    sanctions). Runs only when an AuditContext is attached, so the
//    happy path pays one null check per round.
//  * Per-thread ledgers (GCOL_AUDIT builds only) fed by hooks in the
//    kernels' color accessors. Ledger replay attributes each escaped
//    conflict to the speculative write that produced it and counts the
//    benign speculation (reads observed, writes overturned) so tests
//    can assert the sanctioned mechanism actually engaged.
//
// The hooks reach the context through a process-global atomic registry
// (AuditScope). Install is first-wins: one audited coloring holds the
// registry at a time, and a scope that loses the race simply runs
// unhooked — its per-round sweeps still fire (the driver calls its
// context directly through ColoringOptions::auditor), only the ledger
// attribution goes to the scope that won. Concurrent attach/detach from
// multiple threads is therefore safe by construction: no torn pointer,
// no dangling restore, no UB — just checked-build tooling that degrades
// to sweep-only when contended.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::audit {

#if defined(GCOL_AUDIT)
inline constexpr bool kAuditEnabled = true;
#else
inline constexpr bool kAuditEnabled = false;
#endif

struct AuditOptions {
  /// Throw Error(kInternalInvariant) from end_round as soon as an
  /// escaped conflict is found (the "fail loudly" mode). When false the
  /// violations accumulate in the report for inspection.
  bool fail_fast = false;
  /// Cap on recorded violations (the sweep keeps counting, but stops
  /// materializing descriptions).
  std::size_t max_violations = 32;
  /// Write-ledger slots reserved per thread at attach time. The
  /// overflow policy is grow-never-drop: a round that outruns the
  /// reservation reallocates (counted in AuditReport::ledger_growths)
  /// but records every event — an audit that silently dropped the write
  /// it later needs to attribute would be worse than a slow one.
  std::size_t ledger_reserve = 4096;
};

/// One escaped conflict: vertices `a` and `b` share `color` through
/// `via` (the common net for BGPC, the middle vertex for D2GC; equals
/// `a` or `b` for a distance-1 clash, D2GC or D1GC) after conflict
/// removal.
struct AuditViolation {
  int round = 0;
  vid_t a = kInvalidVertex;
  vid_t b = kInvalidVertex;
  vid_t via = kInvalidVertex;
  color_t color = kNoColor;
  /// True when a ledgered speculative write from this round produced
  /// the surviving color (GCOL_AUDIT builds; always false otherwise).
  bool from_recorded_write = false;

  [[nodiscard]] std::string to_string() const;
};

struct AuditReport {
  int rounds_audited = 0;
  /// Escaped conflicts found across all rounds (not capped).
  std::uint64_t escaped_conflicts = 0;
  /// GCOL_AUDIT builds: speculative color loads observed by the hooks.
  std::uint64_t reads_recorded = 0;
  /// GCOL_AUDIT builds: speculative color stores observed by the hooks.
  std::uint64_t writes_recorded = 0;
  /// GCOL_AUDIT builds: recorded writes that did NOT survive to the end
  /// of their round — the sanctioned, paper-endorsed speculation
  /// (overturned by conflict removal or a later same-round store).
  std::uint64_t writes_overturned = 0;
  /// GCOL_AUDIT builds: ledger reallocations past the per-thread
  /// reservation (AuditOptions::ledger_reserve). Nonzero means the
  /// audit paid heap traffic mid-round, never that events were lost.
  std::uint64_t ledger_growths = 0;
  std::vector<AuditViolation> violations;

  [[nodiscard]] bool clean() const { return escaped_conflicts == 0; }
  [[nodiscard]] std::string summary() const;
};

class AuditContext {
 public:
  explicit AuditContext(AuditOptions options = {});

  // ---- driver side (called by the speculative engine) ----

  /// Size the per-thread ledgers; called by AuditScope on installation.
  void attach(int threads);

  /// Start a round: clears the round ledgers.
  void begin_round(int round);

  /// Audit the partial coloring after this round's conflict removal
  /// (and fault injection, so injected stale writes are visible).
  /// Throws Error(kInternalInvariant) in fail_fast mode on the first
  /// escaped conflict.
  void end_round(const BipartiteView& view, const color_t* c);
  void end_round(const ClosedView& view, const color_t* c);
  void end_round(const Distance1View& view, const color_t* c);

  [[nodiscard]] const AuditReport& report() const { return report_; }

  // ---- hook side (kernels' color accessors, GCOL_AUDIT builds) ----

  void on_read(vid_t v, color_t col);
  void on_write(vid_t v, color_t col);

 private:
  struct WriteEvent {
    vid_t v;
    color_t col;
  };
  // Cache-line padded so two worker threads never share a ledger line.
  struct alignas(64) Ledger {
    std::vector<WriteEvent> writes;
    std::uint64_t reads = 0;
    std::uint64_t growths = 0;  ///< reallocations past the reservation
  };

  /// Harvest the round's ledgers: fills survivors_ with writes whose
  /// color is still live in `c`, bumps the read/write/overturned tally.
  void harvest_ledgers(const color_t* c);
  [[nodiscard]] bool write_survived(vid_t v) const;
  void record_violation(vid_t a, vid_t b, vid_t via, color_t col);
  void finish_round();

  /// seen_stamp_/seen_vertex_ implement the per-net "first holder of
  /// each color" scan without clearing between nets (stamp idiom).
  void reset_seen(std::size_t capacity);
  [[nodiscard]] vid_t seen_holder(color_t col) const;
  void mark_seen(color_t col, vid_t holder);

  AuditOptions options_;
  AuditReport report_;
  int round_ = 0;
  std::vector<Ledger> ledgers_;
  // v -> "a ledgered write of v's current color survived this round"
  // (stamped per end_round epoch, never cleared).
  std::vector<std::uint32_t> survivor_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<vid_t> seen_vertex_;
  std::vector<std::uint32_t> seen_stamp_;
  std::uint32_t seen_epoch_ = 0;
};

/// The globally active context, or nullptr (hook fast path).
[[nodiscard]] AuditContext* active() noexcept;

/// RAII installer used by the coloring drivers: installs `ctx` (may be
/// null — then this is a no-op) as the active context for the duration
/// of one engine invocation. Install is a first-wins CAS against the
/// empty registry; a scope that finds it occupied (another coloring is
/// already being audited, possibly on another thread) does not install
/// and does not clear on exit — the winning scope's uninstall is the
/// only store of nullptr, so concurrent scopes can never leave a
/// dangling context behind.
class AuditScope {
 public:
  AuditScope(AuditContext* ctx, int threads);
  ~AuditScope();
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

  /// True when this scope won the registry (its context receives the
  /// kernel ledger hooks; sweep-only otherwise).
  [[nodiscard]] bool installed() const noexcept { return installed_; }

 private:
  bool installed_;
};

}  // namespace gcol::audit
