#include "greedcolor/dist/dist_bgpc.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/dist/shard.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/robust/fault.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

TEST(DistPartition, BlockCoversAllRanksContiguously) {
  DistOptions opt;
  opt.num_ranks = 4;
  const auto owner = make_partition(100, opt);
  EXPECT_EQ(owner.front(), 0);
  EXPECT_EQ(owner.back(), 3);
  for (std::size_t i = 1; i < owner.size(); ++i)
    EXPECT_LE(owner[i - 1], owner[i]);  // monotone = contiguous blocks
}

TEST(DistPartition, HashIsDeterministicAndSpread) {
  DistOptions opt;
  opt.num_ranks = 8;
  opt.partition = DistOptions::Partition::kHash;
  const auto a = make_partition(1000, opt);
  const auto b = make_partition(1000, opt);
  EXPECT_EQ(a, b);
  std::vector<int> count(8, 0);
  for (const int r : a) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 8);
    ++count[static_cast<std::size_t>(r)];
  }
  for (const int ct : count) EXPECT_GT(ct, 60);  // roughly even
}

TEST(DistPartition, RejectsZeroRanks) {
  DistOptions opt;
  opt.num_ranks = 0;
  EXPECT_THROW(make_partition(10, opt), std::invalid_argument);
}

using Param = std::tuple<int /*ranks*/, DistOptions::Partition>;

class DistValidity : public ::testing::TestWithParam<Param> {};

TEST_P(DistValidity, ValidColoringAndSaneStats) {
  const auto& [ranks, partition] = GetParam();
  PowerLawBipartiteParams p;
  p.rows = 400;
  p.cols = 1600;
  p.min_deg = 3;
  p.max_deg = 120;
  p.alpha = 1.2;
  p.seed = 31;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));

  DistOptions opt;
  opt.num_ranks = ranks;
  opt.partition = partition;
  const auto r = color_bgpc_distributed(g, opt);
  const auto violation = check_bgpc(g, r.colors);
  EXPECT_FALSE(violation.has_value())
      << (violation ? violation->to_string() : "");
  EXPECT_FALSE(r.stats.fallback);
  EXPECT_EQ(r.stats.interior_vertices + r.stats.boundary_vertices,
            g.num_vertices());
  EXPECT_GE(r.num_colors, g.max_net_degree());
  EXPECT_LE(r.num_colors, bgpc_color_bound(g));
}

INSTANTIATE_TEST_SUITE_P(
    RanksByPartition, DistValidity,
    ::testing::Combine(::testing::Values(1, 2, 4, 16),
                       ::testing::Values(DistOptions::Partition::kBlock,
                                         DistOptions::Partition::kHash)),
    [](const auto& info) {
      return std::string("r") + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == DistOptions::Partition::kBlock
                  ? "_block"
                  : "_hash");
    });

TEST(Dist, SingleRankIsPureSequentialNoMessages) {
  const BipartiteGraph g = testing::disjoint_nets(10, 6);
  DistOptions opt;
  opt.num_ranks = 1;
  const auto r = color_bgpc_distributed(g, opt);
  EXPECT_EQ(r.stats.boundary_vertices, 0);
  EXPECT_EQ(r.stats.messages_sent, 0u);
  EXPECT_EQ(r.stats.supersteps, 0);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  // With one rank the schedule is the natural sequential greedy.
  EXPECT_EQ(r.colors, color_bgpc_sequential(g).colors);
}

TEST(Dist, DisjointNetsAlignedWithBlocksNeedNoCommunication) {
  // 4 nets x 4 vertices, 4 ranks, block partition of 16: each net's
  // vertices land in one rank => zero boundary vertices.
  const BipartiteGraph g = testing::disjoint_nets(4, 4);
  DistOptions opt;
  opt.num_ranks = 4;
  const auto r = color_bgpc_distributed(g, opt);
  EXPECT_EQ(r.stats.boundary_vertices, 0);
  EXPECT_EQ(r.stats.messages_sent, 0u);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
}

TEST(Dist, SingleNetAcrossRanksCommunicates) {
  const BipartiteGraph g = testing::single_net(16);
  DistOptions opt;
  opt.num_ranks = 4;
  const auto r = color_bgpc_distributed(g, opt);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  EXPECT_EQ(r.num_colors, 16);
  EXPECT_EQ(r.stats.boundary_vertices, 16);
  EXPECT_GT(r.stats.messages_sent, 0u);
  EXPECT_GE(r.stats.supersteps, 1);
  // Staleness forces conflicts: all ranks first-fit into the same low
  // colors in superstep 1.
  EXPECT_GT(r.stats.conflicts, 0u);
}

TEST(Dist, DeterministicForFixedOptions) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(600, 250, 2, 40, 1.8, 17));
  DistOptions opt;
  opt.num_ranks = 8;
  const auto a = color_bgpc_distributed(g, opt);
  const auto b = color_bgpc_distributed(g, opt);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.supersteps, b.stats.supersteps);
}

TEST(Dist, MoreRanksMoreBoundary) {
  const BipartiteGraph g = build_bipartite(gen_mesh2d(30, 30, 1));
  vid_t prev = 0;
  for (const int ranks : {2, 4, 8}) {
    DistOptions opt;
    opt.num_ranks = ranks;
    const auto r = color_bgpc_distributed(g, opt);
    EXPECT_TRUE(is_valid_bgpc(g, r.colors));
    EXPECT_GE(r.stats.boundary_vertices, prev);
    prev = r.stats.boundary_vertices;
  }
}

TEST(Dist, ColorCountStaysNearSharedMemory) {
  // The distributed rounds should not blow up the color count relative
  // to the shared-memory N1-N2 (paper-family quality).
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(900, 380, 2, 50, 1.8, 23));
  DistOptions opt;
  opt.num_ranks = 8;
  const auto dist = color_bgpc_distributed(g, opt);
  const auto shared = color_bgpc(g, bgpc_preset("N1-N2"));
  EXPECT_TRUE(is_valid_bgpc(g, dist.colors));
  EXPECT_LE(dist.num_colors,
            static_cast<color_t>(shared.num_colors * 1.3) + 2);
}

// ---- Shard construction ----

TEST(Shards, SingleShardOwnsEverythingWithNoGhosts) {
  const BipartiteGraph g = testing::single_net(8);
  DistOptions opt;
  opt.num_ranks = 1;
  const auto shards = make_shards(g, make_partition(g.num_vertices(), opt), 1);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].num_owned(), g.num_vertices());
  EXPECT_EQ(shards[0].num_ghosts(), 0);
  EXPECT_TRUE(shards[0].neighbors.empty());
  EXPECT_EQ(shards[0].local.num_nets(), g.num_nets());
  EXPECT_EQ(shards[0].local.num_edges(), g.num_edges());
}

TEST(Shards, GhostsAndBordersAreSymmetric) {
  PowerLawBipartiteParams p;
  p.rows = 120;
  p.cols = 480;
  p.min_deg = 2;
  p.max_deg = 40;
  p.alpha = 1.3;
  p.seed = 5;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));
  DistOptions opt;
  opt.num_ranks = 4;
  opt.partition = DistOptions::Partition::kHash;
  const auto owner = make_partition(g.num_vertices(), opt);
  const auto shards = make_shards(g, owner, opt.num_ranks);

  vid_t total_owned = 0;
  for (const auto& shard : shards) {
    total_owned += shard.num_owned();
    // Every ghost of shard s is in the border set its owner keeps for s:
    // the ghost's colors really do arrive each superstep.
    for (std::size_t i = 0; i < shard.ghosts.size(); ++i) {
      const int o = shard.ghost_owner[i];
      const auto& other = shards[static_cast<std::size_t>(o)];
      const int ni = other.neighbor_index(shard.id);
      ASSERT_GE(ni, 0) << "ghost owner not a neighbor";
      bool found = false;
      for (const vid_t lu : other.border[static_cast<std::size_t>(ni)])
        if (other.global_of(lu) == shard.ghosts[i]) {
          found = true;
          break;
        }
      EXPECT_TRUE(found) << "ghost " << shard.ghosts[i]
                         << " missing from owner border set";
    }
    // ghost_local round-trips and neighbor lists are mutual.
    for (std::size_t i = 0; i < shard.ghosts.size(); ++i)
      EXPECT_EQ(shard.global_of(shard.ghost_local(shard.ghosts[i])),
                shard.ghosts[i]);
    for (const int nb : shard.neighbors)
      EXPECT_GE(shards[static_cast<std::size_t>(nb)].neighbor_index(shard.id),
                0);
  }
  EXPECT_EQ(total_owned, g.num_vertices());
}

// ---- Fault matrix: every transport x plan combination must converge
// to a verified conflict-free coloring without the sequential fallback.

struct FaultCase {
  const char* name;
  const char* spec;  // "" = clean
  bool expect_repair;
};

using ChaosParam = std::tuple<DistOptions::TransportKind, FaultCase>;

const char* transport_tag(DistOptions::TransportKind kind) {
  return kind == DistOptions::TransportKind::kMailbox ? "mailbox" : "socket";
}

// Without this, gtest prints the parameter as raw object bytes (the
// FaultCase's string pointers among them), and the ctest names change
// with every build.
void PrintTo(const ChaosParam& p, std::ostream* os) {
  *os << "(" << transport_tag(std::get<0>(p)) << ", " << std::get<1>(p).name
      << ")";
}

class DistFaultMatrix : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(DistFaultMatrix, SurvivesWithoutSequentialFallback) {
  const auto& [kind, fc] = GetParam();
  PowerLawBipartiteParams p;
  p.rows = 200;
  p.cols = 800;
  p.min_deg = 2;
  p.max_deg = 60;
  p.alpha = 1.25;
  p.seed = 11;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));

  FaultPlan plan;
  if (fc.spec[0] != '\0') plan = FaultPlan::parse(fc.spec);
  DistOptions opt;
  opt.num_ranks = 4;
  opt.transport = kind;
  if (fc.spec[0] != '\0') opt.fault_plan = &plan;

  const auto r = color_bgpc_distributed(g, opt);
  const auto violation = check_bgpc(g, r.colors);
  EXPECT_FALSE(violation.has_value())
      << (violation ? violation->to_string() : "");
  EXPECT_FALSE(r.stats.fallback) << "degradation must stop at repair";
  EXPECT_FALSE(r.stats.deadline_hit);
  EXPECT_LT(r.stats.supersteps, opt.max_supersteps);
  EXPECT_EQ(r.stats.interior_vertices + r.stats.boundary_vertices,
            g.num_vertices());
  EXPECT_GE(r.num_colors, g.max_net_degree());
  if (fc.expect_repair) {
    EXPECT_GT(r.stats.dirty_boundary, 0);
    EXPECT_TRUE(r.degraded);
  } else if (fc.spec[0] == '\0') {
    EXPECT_EQ(r.stats.dirty_boundary, 0);
    EXPECT_EQ(r.stats.retries, 0u);
    EXPECT_FALSE(r.degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TransportByPlan, DistFaultMatrix,
    ::testing::Combine(
        ::testing::Values(DistOptions::TransportKind::kMailbox,
                          DistOptions::TransportKind::kSocket),
        ::testing::Values(
            FaultCase{"clean", "", false},
            FaultCase{"drop50", "seed=7,drop=0.5", false},
            FaultCase{"reorder50", "seed=7,reorder=0.5,delay-steps=2",
                      false},
            FaultCase{"dup50", "seed=7,dup=0.5", false},
            FaultCase{"mixed", "seed=7,drop=0.3,reorder=0.3,dup=0.3",
                      false},
            // 100% drop: every pair gives up at max_retries, the whole
            // border goes dirty, and repair finishes the job.
            FaultCase{"blackout", "seed=7,drop=1", true},
            // One shard fully partitioned for supersteps 1..3.
            FaultCase{"partition3", "seed=7,part=1,part-start=1,part-steps=3",
                      true})),
    [](const auto& info) {
      return std::string(transport_tag(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param).name;
    });

TEST(DistChaos, BlackoutBoundsSuperstepsAndRecordsRetries) {
  const BipartiteGraph g = testing::single_net(16);
  const FaultPlan plan = FaultPlan::parse("seed=3,drop=1");
  DistOptions opt;
  opt.num_ranks = 4;
  opt.fault_plan = &plan;
  const auto r = color_bgpc_distributed(g, opt);
  EXPECT_TRUE(is_valid_bgpc(g, r.colors));
  // Nothing ever arrives: one superstep of give-up finalizes the whole
  // boundary, repair settles it — no spinning toward max_supersteps.
  EXPECT_EQ(r.stats.supersteps, 1);
  EXPECT_FALSE(r.stats.fallback);
  EXPECT_EQ(r.stats.dirty_boundary, 16);
  EXPECT_GT(r.stats.retries, 0u);
  EXPECT_EQ(r.stats.retries, r.retry_trace.size());
  EXPECT_EQ(r.stats.messages_delivered, 0u);
  EXPECT_GT(r.stats.messages_dropped, 0u);
  // Backoff grows exponentially along each pair's retry ladder.
  EXPECT_GT(r.stats.backoff_us_total, 0u);
  for (const auto& e : r.retry_trace) {
    if (e.attempt > 1) {
      EXPECT_GE(e.backoff_us, opt.backoff_base_us);
    }
  }
}

TEST(DistChaos, DeterministicColorsAndRetryTraceUnderFaults) {
  const BipartiteGraph g =
      build_bipartite(gen_clique_union(600, 250, 2, 40, 1.8, 17));
  const FaultPlan plan =
      FaultPlan::parse("seed=9,drop=0.4,reorder=0.3,dup=0.2,delay-steps=2");
  for (const auto kind : {DistOptions::TransportKind::kMailbox,
                          DistOptions::TransportKind::kSocket}) {
    DistOptions opt;
    opt.num_ranks = 8;
    opt.transport = kind;
    opt.fault_plan = &plan;
    const auto a = color_bgpc_distributed(g, opt);
    const auto b = color_bgpc_distributed(g, opt);
    EXPECT_EQ(a.colors, b.colors);
    EXPECT_EQ(a.retry_trace, b.retry_trace);
    EXPECT_EQ(a.stats.retries, b.stats.retries);
    EXPECT_EQ(a.stats.backoff_us_total, b.stats.backoff_us_total);
    EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
    EXPECT_EQ(a.stats.messages_stale_ignored,
              b.stats.messages_stale_ignored);
  }
}

TEST(DistChaos, MailboxAndSocketTransportsAgree) {
  PowerLawBipartiteParams p;
  p.rows = 150;
  p.cols = 600;
  p.min_deg = 2;
  p.max_deg = 50;
  p.alpha = 1.3;
  p.seed = 23;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));
  const FaultPlan plan = FaultPlan::parse("seed=5,drop=0.3,dup=0.3");
  for (const FaultPlan* fp : {static_cast<const FaultPlan*>(nullptr), &plan}) {
    DistOptions mbox;
    mbox.num_ranks = 4;
    mbox.fault_plan = fp;
    DistOptions sock = mbox;
    sock.transport = DistOptions::TransportKind::kSocket;
    const auto a = color_bgpc_distributed(g, mbox);
    const auto b = color_bgpc_distributed(g, sock);
    EXPECT_EQ(a.colors, b.colors);
    EXPECT_EQ(a.stats.supersteps, b.stats.supersteps);
    EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
    EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered);
    EXPECT_EQ(a.retry_trace, b.retry_trace);
  }
}

TEST(DistChaos, CleanRunAccountingBalances) {
  const BipartiteGraph g = testing::single_net(16);
  DistOptions opt;
  opt.num_ranks = 4;
  const auto r = color_bgpc_distributed(g, opt);
  // No decorator in the path: everything sent is delivered, nothing
  // dropped or duplicated; stale_ignored only counts the redundant
  // entries cumulative batches re-carry by design.
  EXPECT_EQ(r.stats.messages_sent, r.stats.messages_delivered);
  EXPECT_EQ(r.stats.messages_dropped, 0u);
  EXPECT_EQ(r.stats.messages_duplicated, 0u);
  EXPECT_EQ(r.stats.retries, 0u);
  EXPECT_TRUE(r.retry_trace.empty());
}

}  // namespace
}  // namespace gcol
