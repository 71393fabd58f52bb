#include "greedcolor/robust/fault.hpp"

#include <chrono>
#include <sstream>
#include <thread>

#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/prng.hpp"

namespace gcol {

namespace {

// Distinct stream tags keep the per-kind decision sequences independent
// even for equal (round, item) pairs.
constexpr std::uint64_t kStreamStale = 0x5741'4c45'0000'0001ULL;
constexpr std::uint64_t kStreamFlip = 0x464c'4950'0000'0004ULL;

/// Bernoulli(rate) as a pure function of the mixed key.
bool hit(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
         std::uint64_t b, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const std::uint64_t h =
      mix64(seed ^ stream ^ mix64(a * 0x9e3779b97f4a7c15ULL + b));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

double parse_rate(const std::string& key, const std::string& value) {
  std::istringstream in(value);
  double rate = 0.0;
  if (!(in >> rate) || rate < 0.0 || rate > 1.0)
    raise(ErrorCode::kInvalidArgument, "FaultPlan",
          key + " must be a rate in [0, 1], got '" + value + "'");
  return rate;
}

std::int64_t parse_count(const std::string& key, const std::string& value) {
  std::istringstream in(value);
  std::int64_t n = 0;
  if (!(in >> n) || n < 0)
    raise(ErrorCode::kInvalidArgument, "FaultPlan",
          key + " must be a non-negative integer, got '" + value + "'");
  return n;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos)
      raise(ErrorCode::kInvalidArgument, "FaultPlan",
            "expected key=value, got '" + item + "'");
    std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    for (auto& ch : key)
      if (ch == '_') ch = '-';
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_count(key, value));
    } else if (key == "stale") {
      plan.stale_color_rate = parse_rate(key, value);
    } else if (key == "delay-rounds") {
      plan.delay_rounds = static_cast<int>(parse_count(key, value));
    } else if (key == "delay-ms") {
      plan.delay_ms = static_cast<int>(parse_count(key, value));
    } else if (key == "flip") {
      plan.flip_byte_rate = parse_rate(key, value);
    } else if (key == "trunc") {
      plan.truncate_fraction = parse_rate(key, value);
    } else {
      raise(ErrorCode::kInvalidArgument, "FaultPlan",
            "unknown fault key '" + key + "'");
    }
  }
  return plan;
}

std::string FaultPlan::to_spec() const {
  std::ostringstream out;
  out << "seed=" << seed;
  if (stale_color_rate > 0) out << ",stale=" << stale_color_rate;
  if (delay_rounds > 0) out << ",delay-rounds=" << delay_rounds;
  if (delay_ms > 0) out << ",delay-ms=" << delay_ms;
  if (flip_byte_rate > 0) out << ",flip=" << flip_byte_rate;
  if (truncate_fraction > 0) out << ",trunc=" << truncate_fraction;
  return out.str();
}

bool FaultPlan::corrupt_color(int round, vid_t u) const {
  return hit(seed, kStreamStale, static_cast<std::uint64_t>(round),
             static_cast<std::uint64_t>(u), stale_color_rate);
}

std::string FaultPlan::corrupt_bytes(const std::string& bytes,
                                     std::uint64_t variant) const {
  std::string out = bytes;
  if (truncate_fraction > 0.0 && !out.empty()) {
    // Cut between (1 - trunc) and 1.0 of the length; the variant jitters
    // the point so a corpus sweep cuts headers, size lines, and entry
    // lists alike (trunc=1 spans the whole file).
    const double r = static_cast<double>(
                         mix64(seed ^ kStreamFlip ^ mix64(variant)) >> 11) *
                     0x1.0p-53;
    const double keep = 1.0 - truncate_fraction * r;
    out.resize(static_cast<std::size_t>(
        static_cast<double>(out.size()) * keep));
  }
  if (flip_byte_rate > 0.0) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (hit(seed, kStreamFlip, variant, i, flip_byte_rate)) {
        const auto bit = static_cast<unsigned>(
            mix64(seed ^ variant ^ (i * 0x9e3779b97f4a7c15ULL)) % 8);
        out[i] = static_cast<char>(
            static_cast<unsigned char>(out[i]) ^ (1u << bit));
      }
    }
  }
  return out;
}

namespace {

/// Overwrite c[u] with the color of the first distance-2 partner that
/// currently holds a different color; both endpoints stay colored, so
/// the speculative loop's own conflict detection (which only scans the
/// live work queue in vertex mode) can miss it — exactly the hazard a
/// delayed thread creates.
template <typename PartnerScan>
vid_t inject_with(const FaultPlan& plan, vid_t n, int round,
                  std::span<color_t> colors, PartnerScan scan) {
  if (plan.stale_color_rate <= 0.0) return 0;
  vid_t corrupted = 0;
  for (vid_t u = 0; u < n; ++u) {
    if (colors[static_cast<std::size_t>(u)] == kNoColor) continue;
    if (!plan.corrupt_color(round, u)) continue;
    const color_t stale = scan(u);
    if (stale == kNoColor) continue;
    colors[static_cast<std::size_t>(u)] = stale;
    ++corrupted;
  }
  return corrupted;
}

}  // namespace

vid_t inject_stale_colors(const FaultPlan& plan, const BipartiteGraph& g,
                          int round, std::span<color_t> colors) {
  return inject_with(
      plan, g.num_vertices(), round, colors, [&](vid_t u) -> color_t {
        const color_t cu = colors[static_cast<std::size_t>(u)];
        for (const vid_t v : g.nets(u)) {
          for (const vid_t w : g.vtxs(v)) {
            if (w == u) continue;
            const color_t cw = colors[static_cast<std::size_t>(w)];
            if (cw != kNoColor && cw != cu) return cw;
          }
        }
        return kNoColor;
      });
}

vid_t inject_stale_colors(const FaultPlan& plan, const Graph& g, int round,
                          std::span<color_t> colors) {
  return inject_with(
      plan, g.num_vertices(), round, colors, [&](vid_t u) -> color_t {
        const color_t cu = colors[static_cast<std::size_t>(u)];
        for (const vid_t v : g.neighbors(u)) {
          const color_t cv = colors[static_cast<std::size_t>(v)];
          if (cv != kNoColor && cv != cu) return cv;
          for (const vid_t w : g.neighbors(v)) {
            if (w == u) continue;
            const color_t cw = colors[static_cast<std::size_t>(w)];
            if (cw != kNoColor && cw != cu) return cw;
          }
        }
        return kNoColor;
      });
}

bool inject_round_delay(const FaultPlan& plan, int round) {
  if (!plan.delay_round(round)) return false;
  std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
  return true;
}

}  // namespace gcol
