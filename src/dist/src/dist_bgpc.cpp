#include "greedcolor/dist/dist_bgpc.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/dist/shard.hpp"
#include "greedcolor/dist/transport.hpp"
#include "greedcolor/obs/trace.hpp"
#include "greedcolor/robust/fault.hpp"
#include "greedcolor/robust/repair.hpp"
#include "greedcolor/util/marker_set.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/prng.hpp"
#include "greedcolor/util/timer.hpp"

namespace gcol {

namespace {

/// Mutable per-shard runtime state. Shard states are pairwise disjoint,
/// so the compute phases parallelize over shards with no sharing at all
/// — determinism cannot depend on the OpenMP schedule.
struct ShardState {
  /// Local-id colors (owned live, ghosts as last accepted update).
  std::vector<color_t> colors;
  /// Local-id versions: for owned vertices the stamp sent with their
  /// color (2*superstep on coloring, 2*superstep+1 on uncoloring); for
  /// ghosts the version guard that rejects stale deliveries.
  std::vector<std::uint32_t> version;
  /// Owned vertices finalized by a give-up: they keep their speculative
  /// color, skip conflict detection, and are left to repair_bgpc.
  std::vector<std::uint8_t> dirty;
  /// Owned local ids still awaiting a stable color, ascending.
  std::vector<vid_t> pending;
  MarkerSet forbidden;
  std::uint64_t conflicts = 0;  ///< reduced into DistStats after the loop
};

/// Sequential first-fit over the shard's local CSR slice.
color_t first_fit_local(const BipartiteGraph& local, vid_t lu,
                        const std::vector<color_t>& colors,
                        MarkerSet& forbidden) {
  forbidden.clear();
  for (const vid_t lv : local.nets(lu)) {
    for (const vid_t lw : local.vtxs(lv)) {
      if (lw == lu) continue;
      const color_t c = colors[static_cast<std::size_t>(lw)];
      if (c != kNoColor) forbidden.insert(c);
    }
  }
  color_t col = 0;
  while (forbidden.contains(col)) ++col;
  return col;
}

/// Cumulative batch src -> neighbors[ni]: the full border state the
/// destination depends on, so one delivery heals any number of
/// previously lost exchanges.
BoundaryBatch build_batch(const Shard& shard, const ShardState& state,
                          std::size_t ni, int superstep, int attempt) {
  BoundaryBatch b;
  b.src = shard.id;
  b.dst = shard.neighbors[ni];
  b.superstep = superstep;
  b.attempt = attempt;
  b.updates.reserve(shard.border[ni].size());
  for (const vid_t lu : shard.border[ni])
    b.updates.push_back({shard.global_of(lu),
                         state.colors[static_cast<std::size_t>(lu)],
                         state.version[static_cast<std::size_t>(lu)]});
  return b;
}

}  // namespace

std::vector<int> make_partition(vid_t n, const DistOptions& options) {
  if (options.num_ranks < 1)
    throw std::invalid_argument("make_partition: num_ranks must be >= 1");
  std::vector<int> owner(static_cast<std::size_t>(n));
  if (options.partition == DistOptions::Partition::kBlock) {
    for (vid_t u = 0; u < n; ++u)
      owner[static_cast<std::size_t>(u)] = static_cast<int>(
          (static_cast<std::int64_t>(u) * options.num_ranks) / std::max<vid_t>(n, 1));
  } else {
    for (vid_t u = 0; u < n; ++u)
      owner[static_cast<std::size_t>(u)] = static_cast<int>(
          mix64(options.seed ^ static_cast<std::uint64_t>(u)) %
          static_cast<std::uint64_t>(options.num_ranks));
  }
  return owner;
}

DistResult color_bgpc_distributed(const BipartiteGraph& g,
                                  const DistOptions& options) {
  const vid_t n = g.num_vertices();
  const std::vector<int> owner = make_partition(n, options);
  // gcol-trace seam (see core/src/engine.cpp): driver phases land on
  // the engine tracks, per-shard compute on one track per shard.
  obs::Tracer* const tracer = options.tracer;
  if (tracer != nullptr) tracer->attach(max_threads());
  WallTimer total;

  DistResult result;
  result.colors.assign(static_cast<std::size_t>(n), kNoColor);

  const int num_shards = options.num_ranks;
  const std::vector<Shard> shards = make_shards(g, owner, num_shards);
  const auto marker_cap =
      static_cast<std::size_t>(bgpc_color_bound(g)) + 2;

  std::vector<ShardState> states(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& shard = shards[s];
    ShardState& st = states[s];
    st.colors.assign(static_cast<std::size_t>(shard.num_local()), kNoColor);
    st.version.assign(static_cast<std::size_t>(shard.num_local()), 0);
    st.dirty.assign(static_cast<std::size_t>(shard.num_owned()), 0);
    st.forbidden.ensure_capacity(marker_cap);
    for (vid_t lu = 0; lu < shard.num_owned(); ++lu)
      if (shard.owned_boundary[static_cast<std::size_t>(lu)])
        st.pending.push_back(lu);
    result.stats.boundary_vertices += static_cast<vid_t>(st.pending.size());
    result.stats.interior_vertices +=
        shard.num_owned() - static_cast<vid_t>(st.pending.size());
  }

  // Interior phase: two interior vertices of different shards never
  // share a net, so shard-local greedy is conflict-free and needs no
  // messages. A single-shard run has no boundary at all and first-fits
  // in ascending global order — exactly the sequential schedule.
  const int num_states = static_cast<int>(states.size());
  GCOL_TRACE_BEGIN(tracer, "dist.interior",
                   static_cast<std::uint64_t>(result.stats.interior_vertices));
#pragma omp parallel for schedule(static) default(none) \
    shared(shards, states) firstprivate(num_states, tracer)
  for (int s = 0; s < num_states; ++s) {
    const Shard& shard = shards[static_cast<std::size_t>(s)];
    ShardState& st = states[static_cast<std::size_t>(s)];
    GCOL_TRACE_BEGIN(tracer, "dist.interior",
                     static_cast<std::uint64_t>(shard.num_owned()), s);
    for (vid_t lu = 0; lu < shard.num_owned(); ++lu) {
      if (shard.owned_boundary[static_cast<std::size_t>(lu)]) continue;
      st.colors[static_cast<std::size_t>(lu)] =
          first_fit_local(shard.local, lu, st.colors, st.forbidden);
    }
    GCOL_TRACE_END(tracer, "dist.interior", s);
  }
  GCOL_TRACE_END(tracer, "dist.interior");

  // Transport stack: the real transport, optionally wrapped by the
  // deterministic chaos decorator.
  std::unique_ptr<Transport> base;
  if (options.transport == DistOptions::TransportKind::kSocket)
    base = std::make_unique<LoopbackTransport>(num_shards);
  else
    base = std::make_unique<MailboxTransport>(num_shards);
  const FaultPlan* faults =
      options.fault_plan && options.fault_plan->any_dist_faults()
          ? options.fault_plan
          : nullptr;
  std::unique_ptr<LossyTransport> lossy;
  if (faults)
    lossy = std::make_unique<LossyTransport>(*base, *faults, num_shards);
  Transport& net = lossy ? static_cast<Transport&>(*lossy) : *base;

  const auto past_deadline = [&] {
    return options.deadline_seconds > 0.0 &&
           total.seconds() >= options.deadline_seconds;
  };

  std::size_t remaining = 0;
  for (const auto& st : states) remaining += st.pending.size();

  // awaiting[d][ni] == 1 while shard d still expects this superstep's
  // batch from its ni-th neighbor.
  std::vector<std::vector<std::uint8_t>> awaiting(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s)
    awaiting[s].assign(shards[s].neighbors.size(), 0);

  int superstep = 0;
  std::uint64_t traced_drops = 0;  // LossyTransport drop counter watermark
  while (remaining > 0 && superstep < options.max_supersteps &&
         !past_deadline()) {
    ++superstep;
    GCOL_TRACE_BEGIN(tracer, "dist.superstep",
                     static_cast<std::uint64_t>(superstep));

    // P1 — speculate: each shard first-fits its pending vertices in
    // ascending order against live local colors and (one superstep
    // stale) ghost colors. The staleness is what creates distributed
    // conflicts, exactly as in refs [27], [28].
    GCOL_TRACE_BEGIN(tracer, "dist.speculate",
                     static_cast<std::uint64_t>(remaining));
#pragma omp parallel for schedule(static) default(none) \
    shared(shards, states) firstprivate(num_states, superstep, tracer)
    for (int s = 0; s < num_states; ++s) {
      const Shard& shard = shards[static_cast<std::size_t>(s)];
      ShardState& st = states[static_cast<std::size_t>(s)];
      GCOL_TRACE_BEGIN(tracer, "dist.speculate",
                       static_cast<std::uint64_t>(st.pending.size()), s);
      for (const vid_t lu : st.pending) {
        st.colors[static_cast<std::size_t>(lu)] =
            first_fit_local(shard.local, lu, st.colors, st.forbidden);
        st.version[static_cast<std::size_t>(lu)] =
            2u * static_cast<std::uint32_t>(superstep);
      }
      GCOL_TRACE_END(tracer, "dist.speculate", s);
    }
    GCOL_TRACE_END(tracer, "dist.speculate");

    // X — exchange, driver thread only. One cumulative batch per
    // neighbor pair; missing batches are retried with (simulated)
    // exponential backoff, and after max_retries the receiver gives up
    // and finalizes the affected border as dirty.
    net.advance_to(superstep);
    GCOL_TRACE_BEGIN(tracer, "dist.exchange",
                     static_cast<std::uint64_t>(superstep));
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const Shard& shard = shards[s];
      for (std::size_t ni = 0; ni < shard.neighbors.size(); ++ni) {
        BoundaryBatch b = build_batch(shard, states[s], ni, superstep, 0);
        result.stats.messages_sent += b.updates.size();
        GCOL_TRACE_EVENT(tracer, "dist.send",
                         static_cast<std::uint64_t>(b.updates.size()),
                         static_cast<int>(s));
        net.send(b);
      }
      std::fill(awaiting[s].begin(), awaiting[s].end(), 1);
    }

    int attempt = 0;
    while (true) {
      net.pump();
      // Drops happen inside the transport; surface them as instants by
      // watching the lossy counter move across pumps.
      if (lossy && lossy->counters().dropped > traced_drops) {
        GCOL_TRACE_EVENT(tracer, "dist.drop",
                         lossy->counters().dropped - traced_drops);
        traced_drops = lossy->counters().dropped;
      }
      for (std::size_t d = 0; d < shards.size(); ++d) {
        const Shard& shard = shards[d];
        ShardState& st = states[d];
        for (const BoundaryBatch& b : net.receive(static_cast<int>(d))) {
          result.stats.messages_delivered += b.updates.size();
          GCOL_TRACE_EVENT(tracer, "dist.deliver",
                           static_cast<std::uint64_t>(b.updates.size()),
                           static_cast<int>(d));
          if (b.superstep == superstep) {
            const int ni = shard.neighbor_index(b.src);
            if (ni >= 0) awaiting[d][static_cast<std::size_t>(ni)] = 0;
          }
          // Batches from earlier supersteps (delay victims) still flow
          // through the version guard: cumulative content means any
          // entry newer than the ghost's copy is worth applying.
          for (const BoundaryUpdate& u : b.updates) {
            const vid_t gl = shard.ghost_local(u.vertex);
            if (gl == kInvalidVertex) continue;
            if (u.version > st.version[static_cast<std::size_t>(gl)]) {
              st.version[static_cast<std::size_t>(gl)] = u.version;
              st.colors[static_cast<std::size_t>(gl)] = u.color;
            } else {
              ++result.stats.messages_stale_ignored;
            }
          }
        }
      }
      std::vector<std::pair<int, int>> missing;  // (src, dst)
      for (std::size_t d = 0; d < shards.size(); ++d)
        for (std::size_t ni = 0; ni < awaiting[d].size(); ++ni)
          if (awaiting[d][ni])
            missing.emplace_back(shards[d].neighbors[ni],
                                 static_cast<int>(d));
      if (missing.empty()) break;
      std::sort(missing.begin(), missing.end());
      if (attempt >= options.max_retries) {
        GCOL_TRACE_EVENT(tracer, "dist.giveup",
                         static_cast<std::uint64_t>(missing.size()));
        // Give up: the receiver finalizes every border vertex whose
        // conflict detection depends on the silent sender. They keep
        // their speculative colors; repair_bgpc settles any clash.
        for (const auto& [src, dst] : missing) {
          const Shard& shard = shards[static_cast<std::size_t>(dst)];
          ShardState& st = states[static_cast<std::size_t>(dst)];
          const int ni = shard.neighbor_index(src);
          for (const vid_t lu : shard.border[static_cast<std::size_t>(ni)]) {
            if (!st.dirty[static_cast<std::size_t>(lu)]) {
              st.dirty[static_cast<std::size_t>(lu)] = 1;
              ++result.stats.dirty_boundary;
            }
          }
          awaiting[static_cast<std::size_t>(dst)]
                  [static_cast<std::size_t>(ni)] = 0;
        }
        break;
      }
      ++attempt;
      const auto shift =
          static_cast<unsigned>(std::min(attempt - 1, 20));
      const std::uint64_t backoff = std::min(
          options.backoff_cap_us, options.backoff_base_us << shift);
      GCOL_TRACE_EVENT(tracer, "dist.retry",
                       static_cast<std::uint64_t>(attempt));
      GCOL_TRACE_EVENT(tracer, "dist.backoff_us", backoff);
      for (const auto& [src, dst] : missing) {
        const Shard& shard = shards[static_cast<std::size_t>(src)];
        const auto ni =
            static_cast<std::size_t>(shard.neighbor_index(dst));
        BoundaryBatch b =
            build_batch(shard, states[static_cast<std::size_t>(src)], ni,
                        superstep, attempt);
        result.stats.messages_sent += b.updates.size();
        GCOL_TRACE_EVENT(tracer, "dist.send",
                         static_cast<std::uint64_t>(b.updates.size()), src);
        ++result.stats.retries;
        result.stats.backoff_us_total += backoff;
        result.retry_trace.push_back(
            {superstep, src, dst, attempt, backoff});
        net.send(b);
      }
    }

    GCOL_TRACE_END(tracer, "dist.exchange");

    // P2 — conflict detection: an owned vertex loses iff a ghost on a
    // shared net holds the same color with a smaller global id (the
    // static tie-break of refs [27], [28]); at most one side of any
    // clash uncolors. Dirty vertices are final and skipped.
    GCOL_TRACE_BEGIN(tracer, "dist.conflict",
                     static_cast<std::uint64_t>(superstep));
#pragma omp parallel for schedule(static) default(none) \
    shared(shards, states) firstprivate(num_states, superstep, tracer)
    for (int s = 0; s < num_states; ++s) {
      const Shard& shard = shards[static_cast<std::size_t>(s)];
      ShardState& st = states[static_cast<std::size_t>(s)];
      const vid_t n_owned = shard.num_owned();
      GCOL_TRACE_BEGIN(tracer, "dist.conflict",
                       static_cast<std::uint64_t>(n_owned), s);
      for (vid_t lu = 0; lu < n_owned; ++lu) {
        if (!shard.owned_boundary[static_cast<std::size_t>(lu)] ||
            st.dirty[static_cast<std::size_t>(lu)])
          continue;
        const color_t cu = st.colors[static_cast<std::size_t>(lu)];
        if (cu == kNoColor) continue;
        const vid_t gu = shard.global_of(lu);
        bool lose = false;
        for (const vid_t lv : shard.local.nets(lu)) {
          for (const vid_t lw : shard.local.vtxs(lv)) {
            if (lw < n_owned) continue;  // only ghosts can clash here
            if (st.colors[static_cast<std::size_t>(lw)] == cu &&
                shard.global_of(lw) < gu) {
              lose = true;
              break;
            }
          }
          if (lose) break;
        }
        if (lose) {
          st.colors[static_cast<std::size_t>(lu)] = kNoColor;
          st.version[static_cast<std::size_t>(lu)] =
              2u * static_cast<std::uint32_t>(superstep) + 1u;
          ++st.conflicts;
        }
      }
      // Safety net: a dirty vertex is finalized, so it must hold a
      // color (P1 colors every pending vertex before any give-up, so
      // this loop is normally empty).
      for (vid_t lu = 0; lu < n_owned; ++lu) {
        if (!st.dirty[static_cast<std::size_t>(lu)] ||
            st.colors[static_cast<std::size_t>(lu)] != kNoColor)
          continue;
        st.colors[static_cast<std::size_t>(lu)] =
            first_fit_local(shard.local, lu, st.colors, st.forbidden);
        st.version[static_cast<std::size_t>(lu)] =
            2u * static_cast<std::uint32_t>(superstep);
      }
      st.pending.clear();
      for (vid_t lu = 0; lu < n_owned; ++lu)
        if (shard.owned_boundary[static_cast<std::size_t>(lu)] &&
            !st.dirty[static_cast<std::size_t>(lu)] &&
            st.colors[static_cast<std::size_t>(lu)] == kNoColor)
          st.pending.push_back(lu);
      GCOL_TRACE_END(tracer, "dist.conflict", s);
    }
    GCOL_TRACE_END(tracer, "dist.conflict");

    remaining = 0;
    for (const auto& st : states) remaining += st.pending.size();
    GCOL_TRACE_END(tracer, "dist.superstep");
  }

  for (const auto& st : states) result.stats.conflicts += st.conflicts;
  if (lossy) {
    result.stats.messages_dropped = lossy->counters().dropped;
    result.stats.messages_duplicated = lossy->counters().duplicated;
  }

  // Gather owned colors into the global array.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& shard = shards[s];
    for (vid_t lu = 0; lu < shard.num_owned(); ++lu)
      result.colors[static_cast<std::size_t>(
          shard.owned[static_cast<std::size_t>(lu)])] =
          states[s].colors[static_cast<std::size_t>(lu)];
  }

  if (remaining > 0) {
    // Bottom of the degradation ladder: max_supersteps or the deadline
    // expired with vertices still pending — finish them sequentially
    // against live global colors (still valid, extra colors ok).
    result.stats.fallback = true;
    result.stats.deadline_hit = past_deadline();
    result.degraded = true;
    GCOL_TRACE_EVENT(tracer, "dist.fallback",
                     static_cast<std::uint64_t>(remaining));
    GCOL_TRACE_BEGIN(tracer, "dist.sequential_cleanup",
                     static_cast<std::uint64_t>(remaining));
    MarkerSet forbidden(marker_cap);
    for (vid_t u = 0; u < n; ++u) {
      if (result.colors[static_cast<std::size_t>(u)] != kNoColor) continue;
      forbidden.clear();
      for (const vid_t v : g.nets(u)) {
        for (const vid_t w : g.vtxs(v)) {
          if (w == u) continue;
          const color_t cw = result.colors[static_cast<std::size_t>(w)];
          if (cw != kNoColor) forbidden.insert(cw);
        }
      }
      color_t col = 0;
      while (forbidden.contains(col)) ++col;
      result.colors[static_cast<std::size_t>(u)] = col;
    }
    GCOL_TRACE_END(tracer, "dist.sequential_cleanup");
  }

  if (result.stats.dirty_boundary > 0) {
    // Middle rung: give-ups finalized vertices without full conflict
    // information; one repair pass settles whatever actually clashed.
    GCOL_TRACE_BEGIN(tracer, "dist.repair",
                     static_cast<std::uint64_t>(result.stats.dirty_boundary));
    const RepairStats rs = repair_bgpc(g, result.colors);
    GCOL_TRACE_END(tracer, "dist.repair");
    GCOL_TRACE_EVENT(tracer, "dist.repaired",
                     static_cast<std::uint64_t>(rs.repaired));
    result.stats.repair_recolored = rs.repaired;
    result.degraded = true;
  }

  result.stats.supersteps = superstep;
  result.num_colors = count_colors(result.colors);
  result.total_seconds = total.seconds();
  return result;
}

}  // namespace gcol
