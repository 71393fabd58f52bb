// gcol-trace: lock-free per-thread span/event recording for the
// coloring engines (the tracing half of src/obs).
//
// The paper's whole evaluation is a per-round, per-phase timing story
// (Figure 1, Table I), and the robust layer added its own degradation
// timeline on top — but none of it was correlated in time or
// exportable. A Tracer closes that gap: the
// drivers record span boundaries (begin/end) and instant events into
// one fixed-capacity ring buffer per engine thread, and the result
// exports as Chrome trace-event JSON (loadable in Perfetto or
// about://tracing) with one track per thread.
//
// Design constraints, in order:
//  * Zero cost when absent. Recording is reached only through the
//    GCOL_TRACE_* macros below, which compile to nothing when the
//    GCOL_TRACE build option is OFF — no symbol references, no tracer
//    argument evaluation beyond an unevaluated sizeof. With the option
//    ON but no tracer attached (ColoringOptions::tracer == nullptr,
//    the default), the cost is one null check per macro site.
//  * Lock-free hot path. Each ring has exactly one writer (its OpenMP
//    thread); a push is a slot store plus one release store of the
//    head index. Overflow drops the OLDEST events (ring semantics) and
//    counts them — a long run keeps its tail, and the drop count is
//    surfaced as the `trace.dropped` metric, never silently.
//  * Driver-side reads only. Snapshots and exports are taken between
//    parallel regions (or after the run); the release/acquire pair on
//    the head index is also the tsan-visible ordering edge, mirroring
//    CounterSlots::publish/merge_into.
//
// Span names must be string literals (the rings store the pointer,
// never a copy). The taxonomy lives in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace gcol::obs {

#if defined(GCOL_TRACE) && !defined(GCOL_TRACE_FORCE_OFF)
inline constexpr bool kTraceEnabled = true;
#else
inline constexpr bool kTraceEnabled = false;
#endif

/// One recorded span boundary or instant event.
struct TraceEvent {
  enum class Phase : std::uint8_t { kBegin, kEnd, kInstant };

  const char* name = nullptr;  ///< string literal, never owned
  std::uint64_t ts_ns = 0;     ///< nanoseconds since the tracer epoch
  std::uint64_t arg = 0;       ///< one numeric payload (round, count, us)
  std::uint16_t tid = 0;       ///< recording engine thread
  Phase phase = Phase::kInstant;
};

/// Fixed-capacity single-writer ring. The writer owns push(); any
/// other thread may take a snapshot, ordered by the release/acquire
/// head index (callers still snapshot between regions in practice —
/// a writer lapping a concurrent reader can tear the oldest slots).
class TraceBuffer {
 public:
  TraceBuffer() = default;

  /// Drops all content and resizes to `capacity` slots.
  void reset(std::size_t capacity);

  void push(const TraceEvent& ev);

  /// Total push() calls (monotonic, includes dropped events).
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Events overwritten by ring wrap-around (drop-oldest).
  [[nodiscard]] std::uint64_t dropped() const;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Surviving events, oldest to newest.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> head_{0};
};

struct TracerOptions {
  /// Ring slots per engine thread. Overflow drops the oldest events
  /// and counts them (`Tracer::dropped`, metric `trace.dropped`).
  std::size_t ring_capacity = std::size_t{1} << 14;
};

/// The attachable trace sink (ColoringOptions::tracer). Not owned by
/// the engines; one coloring at a time per tracer — concurrent
/// colorings need separate tracers, as they need separate round hooks.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  /// Ensure at least `threads` rings exist (existing content is kept).
  /// The drivers call this with their resolved thread count before the
  /// first parallel region; events from a thread id with no ring are
  /// counted as dropped instead of recorded.
  void attach(int threads);

  // ---- hot path (any engine thread) ----
  void begin(const char* name, std::uint64_t arg = 0);
  void end(const char* name);
  void instant(const char* name, std::uint64_t arg = 0);

  // ---- driver side ----
  [[nodiscard]] int threads() const { return ring_count_; }
  /// Events currently recorded (survivors across all rings).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events lost to ring overflow or missing rings.
  [[nodiscard]] std::uint64_t dropped() const;
  /// All surviving events in timestamp order.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Drop all recorded events (rings keep their capacity).
  void clear();

  /// Chrome trace-event JSON: one track per engine thread under
  /// kEnginePid. Spans are balanced by
  /// construction: an end without a surviving begin (ring overflow) is
  /// skipped, and spans still open at export close at the last
  /// timestamp. Validate with tools/check_trace.py.
  void write_chrome_trace(std::ostream& os) const;
  void write_chrome_trace_file(const std::string& path) const;

  static constexpr int kEnginePid = 1;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  void record(const char* name, TraceEvent::Phase phase, std::uint64_t arg);
  [[nodiscard]] std::uint64_t now_ns() const;

  TracerOptions options_;
  std::unique_ptr<TraceBuffer[]> rings_;
  int ring_count_ = 0;
  std::atomic<std::uint64_t> lost_{0};  ///< events with no ring to land in
  std::uint64_t epoch_ns_ = 0;          ///< steady-clock origin
};

/// RAII span: begin on construction, end on destruction. Prefer the
/// GCOL_TRACE_SPAN macro, which compiles out with the build option.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name, std::uint64_t arg = 0)
      : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) tracer_->begin(name_, arg);
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->end(name_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
};

}  // namespace gcol::obs

// The only sanctioned call sites: everything the engines record goes
// through these, so a GCOL_TRACE=OFF build compiles the whole
// instrumentation — tracer argument included — down to nothing but an
// unevaluated sizeof (no unused-variable warnings, no obs symbols).
#if defined(GCOL_TRACE) && !defined(GCOL_TRACE_FORCE_OFF)
#define GCOL_TRACE_CAT2(a, b) a##b
#define GCOL_TRACE_CAT(a, b) GCOL_TRACE_CAT2(a, b)
/// Scoped span over the rest of the enclosing block.
#define GCOL_TRACE_SPAN(tracer, ...) \
  ::gcol::obs::SpanGuard GCOL_TRACE_CAT(gcol_trace_span_, \
                                        __LINE__)((tracer), __VA_ARGS__)
/// Explicit span boundaries (loop bodies with early exits).
#define GCOL_TRACE_BEGIN(tracer, ...)                            \
  do {                                                           \
    if (auto* gcol_trace_t_ = (tracer)) gcol_trace_t_->begin(__VA_ARGS__); \
  } while (0)
#define GCOL_TRACE_END(tracer, ...)                              \
  do {                                                           \
    if (auto* gcol_trace_t_ = (tracer)) gcol_trace_t_->end(__VA_ARGS__); \
  } while (0)
/// Zero-duration instant event.
#define GCOL_TRACE_EVENT(tracer, ...)                            \
  do {                                                           \
    if (auto* gcol_trace_t_ = (tracer)) gcol_trace_t_->instant(__VA_ARGS__); \
  } while (0)
#else
#define GCOL_TRACE_SPAN(tracer, ...) \
  do {                               \
    (void)sizeof((tracer));          \
  } while (0)
#define GCOL_TRACE_BEGIN(tracer, ...) \
  do {                                \
    (void)sizeof((tracer));           \
  } while (0)
#define GCOL_TRACE_END(tracer, ...) \
  do {                              \
    (void)sizeof((tracer));         \
  } while (0)
#define GCOL_TRACE_EVENT(tracer, ...) \
  do {                                \
    (void)sizeof((tracer));           \
  } while (0)
#endif
