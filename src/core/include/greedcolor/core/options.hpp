// Algorithm configuration for the speculative coloring framework.
//
// Every algorithm the paper evaluates is one point in a small product
// space: which kernel colors (vertex- or net-based, and for how many
// rounds), which kernel removes conflicts (and for how many rounds),
// how the next work queue is built, the OpenMP chunk size, and the
// color-selection policy (first-fit or one of the balancing heuristics).
// The named presets below reproduce the paper's eight variants exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gcol {

struct FaultPlan;  // greedcolor/robust/fault.hpp
namespace audit {
class AuditContext;  // greedcolor/analyze/audit.hpp
}
namespace check {
class McContext;  // greedcolor/check/mc.hpp
}
namespace obs {
class Tracer;  // greedcolor/obs/trace.hpp
}

/// How the conflict queue for the next round is assembled.
enum class QueuePolicy {
  kShared,  ///< one shared atomic queue (ColPack's V-V / V-V-64)
  kLazy,    ///< thread-private queues merged at round end (the "D")
};

/// Color-selection policy plugged into the coloring kernels.
enum class BalancePolicy {
  kNone,  ///< plain (reverse) first-fit — the unbalanced "-U" runs
  kB1,    ///< Alg. 11: alternate FF / reverse-FF from col_max, no extra colors by design
  kB2,    ///< Alg. 12: rotating cursor col_next, aggressive balancing
};

[[nodiscard]] std::string to_string(QueuePolicy q);
[[nodiscard]] std::string to_string(BalancePolicy b);

struct ColoringOptions {
  /// Display name ("V-V", "N1-N2", ...). Informational only.
  std::string name = "custom";

  /// Rounds (1-based, counted from the first) that use *net-based*
  /// coloring (Alg. 8); later rounds use vertex-based coloring (Alg. 4).
  int net_color_rounds = 0;

  /// Rounds that use *net-based* conflict removal (Alg. 7); later rounds
  /// use vertex-based removal (Alg. 5). -1 means every round (V-N∞).
  /// Must be >= net_color_rounds (or -1): a net-colored round has no
  /// explicit work queue for a vertex-based removal to scan.
  int net_conflict_rounds = 0;

  /// OpenMP dynamic-scheduling chunk size for vertex-based kernels.
  int chunk_size = 1;

  /// Next-queue construction for vertex-based conflict removal
  /// (net-based removal is always lazy, as in the paper).
  QueuePolicy queue = QueuePolicy::kShared;

  BalancePolicy balance = BalancePolicy::kNone;

  /// Thread count; 0 uses the ambient OpenMP default.
  int num_threads = 0;

  /// Safety valve: after this many speculative rounds the remaining
  /// uncolored vertices are finished sequentially (guaranteed valid).
  int max_rounds = 200;

  /// Convergence-watchdog wall-clock deadline in seconds (0 disables).
  /// Checked once per round: when exceeded, the remaining work is
  /// finished by the sequential cleanup and the result carries
  /// deadline_hit / degraded. Round granularity: one straggling round
  /// can overshoot the deadline before the check fires.
  double deadline_seconds = 0.0;

  /// Deterministic fault-injection plan (tests / fault matrices); not
  /// owned, may be null. See greedcolor/robust/fault.hpp.
  const FaultPlan* fault_plan = nullptr;

  /// Speculative-race auditor: when attached, the partial coloring is
  /// checked after every conflict-removal pass and (in GCOL_AUDIT
  /// builds) the kernels ledger their racy color accesses into it. Not
  /// owned, may be null; one coloring at a time per context. See
  /// greedcolor/analyze/audit.hpp.
  audit::AuditContext* auditor = nullptr;

  /// gcol-mc schedule-exploration checker: when attached (and armed),
  /// the drivers report round boundaries into it and — in GCOL_MC
  /// builds — the kernels' color accessors become cooperative schedule
  /// points under its control. Not owned, may be null; one coloring at
  /// a time per context. See greedcolor/check/mc.hpp.
  check::McContext* checker = nullptr;

  /// gcol-trace tracer: when attached, the drivers record per-round and
  /// per-phase spans plus degradation events into its per-thread ring
  /// buffers (the GCOL_TRACE build option compiles the recording sites
  /// out entirely). Not owned, may be null; one coloring at a time per
  /// tracer. See greedcolor/obs/trace.hpp.
  obs::Tracer* tracer = nullptr;

  /// Use the most-optimistic net coloring (Alg. 6, "Net-V1") instead of
  /// the two-pass Alg. 8 during net-colored rounds, optionally with its
  /// first-fit replaced by reverse first-fit ("Alg. 6 + reverse" in
  /// Table I). Only exercised by the paper driver's Table I experiment
  /// and tests.
  bool net_v1 = false;
  bool net_v1_reverse = false;

  /// Throws std::invalid_argument when fields are inconsistent.
  void validate() const;
};

/// The paper's eight BGPC variants (Section VI) by name:
/// "V-V", "V-V-64", "V-V-64D", "V-Ninf", "V-N1", "V-N2", "N1-N2",
/// "N2-N2" (the ∞ variant also accepts "V-N∞").
[[nodiscard]] ColoringOptions bgpc_preset(const std::string& name);

/// Preset names in the paper's presentation order.
[[nodiscard]] const std::vector<std::string>& bgpc_preset_names();

/// The four D2GC variants of Table V: "V-V-64D", "V-N1", "V-N2",
/// "N1-N2" (plus "V-V" for the sequential baseline).
[[nodiscard]] ColoringOptions d2gc_preset(const std::string& name);

[[nodiscard]] const std::vector<std::string>& d2gc_preset_names();

}  // namespace gcol
