#include "greedcolor/analyze/audit.hpp"

#include <algorithm>
#include <sstream>

#include "greedcolor/analyze/escaped.hpp"
#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/parallel.hpp"

namespace gcol::audit {

namespace {

// The active-context registry. Atomic so concurrent colorings on
// different threads can race their begin_run calls without UB: install
// is a first-wins CAS from empty, uninstall is the winner's store of
// nullptr in end_run. The worker-side hooks load it inside the engine's
// parallel regions, all of which run between the two.
std::atomic<AuditContext*> g_active{nullptr};

}  // namespace

AuditContext* active() noexcept {
  return g_active.load(std::memory_order_acquire);
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

void AuditContext::begin_run(int threads) {
  const auto want = static_cast<std::size_t>(
      std::max(threads > 0 ? threads : max_threads(), 1));
  if (ledgers_.size() < want) ledgers_.resize(want);
  for (Ledger& l : ledgers_)
    if (l.writes.capacity() < options_.ledger_reserve)
      l.writes.reserve(options_.ledger_reserve);
  AuditContext* expected = nullptr;
  installed_ = g_active.compare_exchange_strong(
      expected, this, std::memory_order_acq_rel, std::memory_order_acquire);
  // Lost the race (another coloring is being audited): run sweep-only.
}

void AuditContext::end_run() {
  if (installed_) g_active.store(nullptr, std::memory_order_release);
  installed_ = false;
}

void AuditContext::begin_round(int round,
                               std::span<const color_t> /*colors*/) {
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

template <class V>
vid_t AuditContext::audit_round(const V& view, const color_t* c) {
  harvest_ledgers(c);
  const std::uint64_t before = report_.escaped_conflicts;
  for_each_escaped_conflict(view, c,
                            [this](vid_t a, vid_t b, vid_t via, color_t col) {
                              record_violation(a, b, via, col);
                            });
  ++report_.rounds_audited;
  if (options_.fail_fast && report_.escaped_conflicts > before)
    raise(ErrorCode::kInternalInvariant, "speculative-race audit",
          "escaped conflict after conflict removal: " +
              (report_.violations.empty()
                   ? report_.summary()
                   : report_.violations.back().to_string()));
  return 0;
}

vid_t AuditContext::end_round(const BipartiteView& view,
                              std::span<color_t> colors,
                              const std::vector<vid_t>& /*next_queue*/) {
  return audit_round(view, colors.data());
}

vid_t AuditContext::end_round(const ClosedView& view,
                              std::span<color_t> colors,
                              const std::vector<vid_t>& /*next_queue*/) {
  return audit_round(view, colors.data());
}

vid_t AuditContext::end_round(const Distance1View& view,
                              std::span<color_t> colors,
                              const std::vector<vid_t>& /*next_queue*/) {
  return audit_round(view, colors.data());
}

}  // namespace gcol::audit
