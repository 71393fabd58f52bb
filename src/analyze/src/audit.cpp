#include "greedcolor/analyze/audit.hpp"

#include <algorithm>
#include <sstream>

#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/parallel.hpp"

namespace gcol::audit {

namespace {

// The active-context registry. Atomic so concurrent colorings on
// different threads can race their AuditScopes without UB: install is a
// first-wins CAS from empty, uninstall is the winner's store of
// nullptr. The worker-side hooks load it inside the engine's parallel
// region, which the winning scope outlives by construction.
std::atomic<AuditContext*> g_active{nullptr};

}  // namespace

AuditContext* active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

AuditScope::AuditScope(AuditContext* ctx, int threads) : installed_(false) {
  if (ctx == nullptr) return;
  ctx->attach(threads);
  AuditContext* expected = nullptr;
  installed_ = g_active.compare_exchange_strong(
      expected, ctx, std::memory_order_acq_rel, std::memory_order_acquire);
  // Lost the race (another coloring is being audited): run sweep-only.
  // The driver still reaches `ctx` directly via options.auditor.
}

AuditScope::~AuditScope() {
  if (installed_) g_active.store(nullptr, std::memory_order_release);
}

std::string AuditViolation::to_string() const {
  std::ostringstream out;
  out << "round " << round << ": vertices " << a << " and " << b
      << " share color " << color << " via " << via
      << " after conflict removal"
      << (from_recorded_write ? " (survived speculative write)" : "");
  return out.str();
}

std::string AuditReport::summary() const {
  std::ostringstream out;
  out << "rounds=" << rounds_audited << " escaped=" << escaped_conflicts
      << " reads=" << reads_recorded << " writes=" << writes_recorded
      << " overturned=" << writes_overturned
      << " ledger-growths=" << ledger_growths;
  return out.str();
}

AuditContext::AuditContext(AuditOptions options) : options_(options) {}

void AuditContext::attach(int threads) {
  const auto want = static_cast<std::size_t>(
      std::max(threads > 0 ? threads : max_threads(), 1));
  if (ledgers_.size() < want) ledgers_.resize(want);
  for (Ledger& l : ledgers_)
    if (l.writes.capacity() < options_.ledger_reserve)
      l.writes.reserve(options_.ledger_reserve);
}

void AuditContext::begin_round(int round) {
  round_ = round;
  for (Ledger& l : ledgers_) {
    l.writes.clear();
    l.reads = 0;
  }
}

void AuditContext::on_read(vid_t v, color_t col) {
  (void)v;
  (void)col;
  const auto tid = static_cast<std::size_t>(current_thread());
  if (tid < ledgers_.size()) ++ledgers_[tid].reads;
}

void AuditContext::on_write(vid_t v, color_t col) {
  const auto tid = static_cast<std::size_t>(current_thread());
  if (tid < ledgers_.size()) {
    Ledger& l = ledgers_[tid];
    // Grow-never-drop: past the reservation we pay a reallocation
    // (counted, so tests and tuners can see it) but lose no event.
    if (l.writes.size() == l.writes.capacity()) ++l.growths;
    l.writes.push_back({v, col});
  }
}

void AuditContext::harvest_ledgers(const color_t* c) {
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(survivor_stamp_.begin(), survivor_stamp_.end(), 0);
    epoch_ = 1;
  }
  for (Ledger& l : ledgers_) {
    report_.reads_recorded += l.reads;
    report_.ledger_growths += l.growths;
    l.growths = 0;
    for (const WriteEvent& e : l.writes) {
      ++report_.writes_recorded;
      if (e.col == kNoColor) continue;  // conflict-removal uncolor
      const auto idx = static_cast<std::size_t>(e.v);
      if (c[idx] == e.col) {
        if (survivor_stamp_.size() <= idx) survivor_stamp_.resize(idx + 1, 0);
        survivor_stamp_[idx] = epoch_;
      } else {
        // Overturned by conflict removal (or superseded by a later
        // same-round store): the sanctioned speculation.
        ++report_.writes_overturned;
      }
    }
  }
}

bool AuditContext::write_survived(vid_t v) const {
  const auto idx = static_cast<std::size_t>(v);
  return idx < survivor_stamp_.size() && survivor_stamp_[idx] == epoch_;
}

void AuditContext::record_violation(vid_t a, vid_t b, vid_t via,
                                    color_t col) {
  ++report_.escaped_conflicts;
  if (report_.violations.size() < options_.max_violations) {
    AuditViolation v;
    v.round = round_;
    v.a = a;
    v.b = b;
    v.via = via;
    v.color = col;
    v.from_recorded_write = write_survived(a) || write_survived(b);
    report_.violations.push_back(std::move(v));
  }
}

void AuditContext::finish_round() {
  ++report_.rounds_audited;
  if (options_.fail_fast && !report_.clean())
    raise(ErrorCode::kInternalInvariant, "speculative-race audit",
          "escaped conflict after conflict removal: " +
              (report_.violations.empty()
                   ? report_.summary()
                   : report_.violations.back().to_string()));
}

void AuditContext::reset_seen(std::size_t capacity) {
  if (seen_stamp_.size() < capacity) {
    seen_stamp_.resize(capacity, 0);
    seen_vertex_.resize(capacity, kInvalidVertex);
  }
}

vid_t AuditContext::seen_holder(color_t col) const {
  const auto idx = static_cast<std::size_t>(col);
  if (idx >= seen_stamp_.size() || seen_stamp_[idx] != seen_epoch_)
    return kInvalidVertex;
  return seen_vertex_[idx];
}

void AuditContext::mark_seen(color_t col, vid_t holder) {
  const auto idx = static_cast<std::size_t>(col);
  if (idx >= seen_stamp_.size()) reset_seen(idx + 1);
  seen_stamp_[idx] = seen_epoch_;
  seen_vertex_[idx] = holder;
}

void AuditContext::end_round(const BipartiteView& view, const color_t* c) {
  harvest_ledgers(c);
  const BipartiteGraph& g = view.g;
  // Net-side sweep, the dual of check_bgpc but on a *partial* coloring:
  // within one net every live color may appear once; an uncolored
  // vertex is pending re-coloring and exempt by the paper's contract.
  for (vid_t v = 0; v < g.num_nets(); ++v) {
    if (++seen_epoch_ == 0) {
      std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
      seen_epoch_ = 1;
    }
    for (const vid_t u : g.vtxs(v)) {
      const color_t cu = c[static_cast<std::size_t>(u)];
      if (cu == kNoColor) continue;
      const vid_t holder = seen_holder(cu);
      if (holder != kInvalidVertex)
        record_violation(u, holder, v, cu);
      else
        mark_seen(cu, u);
    }
  }
  finish_round();
}

void AuditContext::end_round(const ClosedView& view, const color_t* c) {
  harvest_ledgers(c);
  const Graph& g = view.g;
  // Closed-neighborhood sweep (the D2GC analogue of the net sweep):
  // the colored members of N[v] must be pairwise distinct.
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (++seen_epoch_ == 0) {
      std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
      seen_epoch_ = 1;
    }
    const color_t cv = c[static_cast<std::size_t>(v)];
    if (cv != kNoColor) mark_seen(cv, v);
    for (const vid_t u : g.neighbors(v)) {
      const color_t cu = c[static_cast<std::size_t>(u)];
      if (cu == kNoColor) continue;
      const vid_t holder = seen_holder(cu);
      if (holder != kInvalidVertex && holder != u)
        record_violation(u, holder, v, cu);
      else
        mark_seen(cu, u);
    }
  }
  finish_round();
}

void AuditContext::end_round(const Distance1View& view, const color_t* c) {
  harvest_ledgers(c);
  // Edge sweep: the two colored endpoints of an edge must differ.
  const Graph& g = view.g;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const color_t cv = c[static_cast<std::size_t>(v)];
    if (cv == kNoColor) continue;
    for (const vid_t u : g.neighbors(v))
      if (u > v && c[static_cast<std::size_t>(u)] == cv)
        record_violation(u, v, v, cv);
  }
  finish_round();
}

}  // namespace gcol::audit
