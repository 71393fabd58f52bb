#include "greedcolor/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "greedcolor/util/parallel.hpp"

namespace gcol::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span names are repo-controlled literals, but the exporter escapes
// them anyway so the emitted document is valid JSON no matter what.
void write_json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (c < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << static_cast<char>(c);
        }
    }
  }
  os << '"';
}

// Microsecond timestamp with nanosecond fraction, emitted as a plain
// decimal so the JSON stays locale- and precision-independent.
void write_ts_us(std::ostream& os, std::uint64_t ts_ns) {
  os << ts_ns / 1000 << '.' << static_cast<char>('0' + (ts_ns / 100) % 10)
     << static_cast<char>('0' + (ts_ns / 10) % 10)
     << static_cast<char>('0' + ts_ns % 10);
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceBuffer

void TraceBuffer::reset(std::size_t capacity) {
  slots_.assign(capacity, TraceEvent{});
  head_.store(0, std::memory_order_release);
}

void TraceBuffer::push(const TraceEvent& ev) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (!slots_.empty()) {
    slots_[static_cast<std::size_t>(head % slots_.size())] = ev;
  }
  // Release-publish the slot write; the driver-side acquire in
  // snapshot()/pushed() is the cross-thread ordering edge (and the one
  // tsan sees through the OpenMP join, like CounterSlots::publish).
  head_.store(head + 1, std::memory_order_release);
}

std::uint64_t TraceBuffer::dropped() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (slots_.empty()) return head;
  return head > slots_.size() ? head - slots_.size() : 0;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::vector<TraceEvent> out;
  if (slots_.empty() || head == 0) return out;
  const std::uint64_t survivors = std::min<std::uint64_t>(head, slots_.size());
  out.reserve(static_cast<std::size_t>(survivors));
  for (std::uint64_t i = head - survivors; i < head; ++i) {
    out.push_back(slots_[static_cast<std::size_t>(i % slots_.size())]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(TracerOptions options)
    : options_(options), epoch_ns_(steady_now_ns()) {
  attach(1);  // standalone use (no driver) still has a driver-thread ring
}

void Tracer::attach(int threads) {
  if (threads <= ring_count_) return;
  auto grown = std::make_unique<TraceBuffer[]>(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    grown[t].reset(options_.ring_capacity);
  }
  // Carry existing content over (attach happens between runs, never
  // concurrently with recording — same single-owner contract as the
  // auditor seam).
  for (int t = 0; t < ring_count_; ++t) {
    for (const TraceEvent& ev : rings_[t].snapshot()) grown[t].push(ev);
  }
  rings_ = std::move(grown);
  ring_count_ = threads;
}

std::uint64_t Tracer::now_ns() const { return steady_now_ns() - epoch_ns_; }

void Tracer::record(const char* name, TraceEvent::Phase phase,
                    std::uint64_t arg) {
  const int tid = current_thread();  // gcol::current_thread (omp wrapper)
  if (tid < 0 || tid >= ring_count_) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent ev;
  ev.name = name;
  ev.ts_ns = now_ns();
  ev.arg = arg;
  ev.tid = static_cast<std::uint16_t>(tid);
  ev.phase = phase;
  rings_[tid].push(ev);
}

void Tracer::begin(const char* name, std::uint64_t arg) {
  record(name, TraceEvent::Phase::kBegin, arg);
}

void Tracer::end(const char* name) {
  record(name, TraceEvent::Phase::kEnd, 0);
}

void Tracer::instant(const char* name, std::uint64_t arg) {
  record(name, TraceEvent::Phase::kInstant, arg);
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t total = 0;
  for (int t = 0; t < ring_count_; ++t) {
    const std::uint64_t pushed = rings_[t].pushed();
    total += std::min<std::uint64_t>(pushed, rings_[t].capacity());
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = lost_.load(std::memory_order_relaxed);
  for (int t = 0; t < ring_count_; ++t) total += rings_[t].dropped();
  return total;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> all;
  all.reserve(static_cast<std::size_t>(recorded()));
  for (int t = 0; t < ring_count_; ++t) {
    std::vector<TraceEvent> part = rings_[t].snapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  // Stable: same-timestamp events from one ring keep program order, so
  // a begin/end pair recorded back-to-back can never invert.
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return all;
}

void Tracer::clear() {
  for (int t = 0; t < ring_count_; ++t) rings_[t].reset(options_.ring_capacity);
  lost_.store(0, std::memory_order_relaxed);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> evs = events();

  // Collect the threads that actually recorded something so metadata
  // rows match the data rows exactly.
  std::vector<int> tids;
  std::uint64_t max_ts = 0;
  for (const TraceEvent& ev : evs) {
    tids.push_back(ev.tid);
    max_ts = std::max(max_ts, ev.ts_ns);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

  os << "{\n";
  os << "  \"displayTimeUnit\": \"ms\",\n";
  os << "  \"otherData\": {\"schema\": \"gcol-trace-chrome-v1\", "
     << "\"recorded\": " << evs.size() << ", \"dropped\": " << dropped()
     << "},\n";
  os << "  \"traceEvents\": [";

  bool first = true;
  auto sep = [&]() {
    if (!first) os << ',';
    first = false;
    os << "\n    ";
  };

  // Metadata: name the process once and every thread that appears.
  if (!tids.empty()) {
    sep();
    os << "{\"ph\": \"M\", \"pid\": " << kEnginePid
       << ", \"tid\": 0, \"name\": \"process_name\", "
       << "\"args\": {\"name\": \"gcol engine\"}}";
  }
  for (const int tid : tids) {
    sep();
    os << "{\"ph\": \"M\", \"pid\": " << kEnginePid << ", \"tid\": " << tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \"thread "
       << tid << "\"}}";
  }

  // Data rows, kept balanced per thread: drop-oldest overflow can leave
  // an end without its begin (skip it) or a begin without its end
  // (close it at the final timestamp), so the export is always loadable
  // and tools/check_trace.py-clean.
  std::vector<std::pair<int, std::vector<const char*>>> stacks;
  auto stack_of = [&](int tid) -> std::vector<const char*>& {
    for (auto& [key, st] : stacks) {
      if (key == tid) return st;
    }
    stacks.emplace_back(tid, std::vector<const char*>{});
    return stacks.back().second;
  };

  auto emit = [&](const char* name, char ph, std::uint64_t ts_ns, int tid,
                  const std::uint64_t* arg) {
    sep();
    os << "{\"name\": ";
    write_json_string(os, name);
    os << ", \"ph\": \"" << ph << "\", \"ts\": ";
    write_ts_us(os, ts_ns);
    os << ", \"pid\": " << kEnginePid << ", \"tid\": " << tid;
    if (ph == 'i') os << ", \"s\": \"t\"";
    if (arg != nullptr) os << ", \"args\": {\"v\": " << *arg << "}";
    os << "}";
  };

  for (const TraceEvent& ev : evs) {
    switch (ev.phase) {
      case TraceEvent::Phase::kBegin:
        stack_of(ev.tid).push_back(ev.name);
        emit(ev.name, 'B', ev.ts_ns, ev.tid, &ev.arg);
        break;
      case TraceEvent::Phase::kEnd: {
        auto& st = stack_of(ev.tid);
        if (st.empty()) break;  // begin fell off the ring: skip
        st.pop_back();
        emit(ev.name, 'E', ev.ts_ns, ev.tid, nullptr);
        break;
      }
      case TraceEvent::Phase::kInstant:
        emit(ev.name, 'i', ev.ts_ns, ev.tid, &ev.arg);
        break;
    }
  }
  for (auto& [tid, st] : stacks) {
    while (!st.empty()) {
      emit(st.back(), 'E', max_ts, tid, nullptr);
      st.pop_back();
    }
  }

  os << "\n  ]\n}\n";
}

void Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("gcol-trace: cannot open trace output: " + path);
  }
  write_chrome_trace(os);
}

}  // namespace gcol::obs
