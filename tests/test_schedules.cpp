// Schedule semantics: which kernel runs in which round for every named
// preset — the defining property of the paper's algorithm names.
#include <gtest/gtest.h>

#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "test_util.hpp"

namespace gcol {
namespace {

/// A conflict-rich instance guaranteeing several rounds at 4 threads.
BipartiteGraph busy_graph() {
  return build_bipartite(gen_clique_union(2500, 900, 2, 80, 1.7, 66));
}

std::pair<std::string, std::string> kernel_trace(
    const ColoringResult& r) {
  std::string color, conflict;
  for (const auto& it : r.iterations) {
    color += it.net_based_coloring ? 'N' : 'V';
    conflict += it.net_based_conflict ? 'N' : 'V';
  }
  return {color, conflict};
}

TEST(Schedules, TracesMatchAlgorithmNames) {
  const BipartiteGraph g = busy_graph();
  auto run = [&](const char* name) {
    ColoringOptions opt = bgpc_preset(name);
    opt.num_threads = 4;
    const auto r = color_bgpc(g, opt);
    EXPECT_TRUE(is_valid_bgpc(g, r.colors)) << name;
    return kernel_trace(r);
  };

  {
    const auto [color, conflict] = run("V-V");
    EXPECT_EQ(color.find('N'), std::string::npos);
    EXPECT_EQ(conflict.find('N'), std::string::npos);
  }
  {
    const auto [color, conflict] = run("V-Ninf");
    EXPECT_EQ(color.find('N'), std::string::npos);
    EXPECT_EQ(conflict.find('V'), std::string::npos);  // net everywhere
  }
  {
    const auto [color, conflict] = run("V-N1");
    EXPECT_EQ(color.find('N'), std::string::npos);
    EXPECT_EQ(conflict.substr(0, 1), "N");
    if (conflict.size() > 1) {
      EXPECT_EQ(conflict.find('N', 1), std::string::npos);
    }
  }
  {
    const auto [color, conflict] = run("V-N2");
    EXPECT_EQ(color.find('N'), std::string::npos);
    EXPECT_EQ(conflict.substr(0, std::min<std::size_t>(2, conflict.size())),
              std::string("NN").substr(0, std::min<std::size_t>(
                                              2, conflict.size())));
    if (conflict.size() > 2) {
      EXPECT_EQ(conflict.find('N', 2), std::string::npos);
    }
  }
  {
    const auto [color, conflict] = run("N1-N2");
    EXPECT_EQ(color.substr(0, 1), "N");
    if (color.size() > 1) {
      EXPECT_EQ(color.find('N', 1), std::string::npos);
    }
    EXPECT_EQ(conflict.substr(0, 1), "N");
  }
  {
    const auto [color, conflict] = run("N2-N2");
    if (color.size() >= 2) {
      EXPECT_EQ(color.substr(0, 2), "NN");
    }
    if (color.size() > 2) {
      EXPECT_EQ(color.find('N', 2), std::string::npos);
    }
    (void)conflict;
  }
}

TEST(Schedules, SharedAndLazyQueuesFindTheSameConflictsSequentially) {
  // At one thread the two queue strategies are semantically identical:
  // a single-threaded V-V run is conflict-free, so shared and lazy
  // queues must give the same colors in the same number of rounds.
  const BipartiteGraph g = busy_graph();
  ColoringOptions shared = bgpc_preset("V-V");
  shared.num_threads = 1;
  ColoringOptions lazy = shared;
  lazy.queue = QueuePolicy::kLazy;
  const auto a = color_bgpc(g, shared);
  const auto b = color_bgpc(g, lazy);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Schedules, D2gcTracesMatchToo) {
  const Graph g = build_graph(gen_clique_union(1200, 450, 2, 40, 1.8, 15));
  ColoringOptions opt = d2gc_preset("N1-N2");
  opt.num_threads = 4;
  const auto r = color_d2gc(g, opt);
  EXPECT_TRUE(is_valid_d2gc(g, r.colors));
  const auto [color, conflict] = kernel_trace(r);
  EXPECT_EQ(color.substr(0, 1), "N");
  if (color.size() > 1) {
    EXPECT_EQ(color.find('N', 1), std::string::npos);
  }
  EXPECT_EQ(conflict.substr(0, 1), "N");
}

TEST(Schedules, D2gcMaxRoundsFallbackStaysValid) {
  const Graph g = build_graph(gen_clique_union(1200, 450, 2, 40, 1.8, 16));
  ColoringOptions opt = d2gc_preset("N1-N2");
  opt.max_rounds = 1;
  opt.num_threads = 4;
  const auto r = color_d2gc(g, opt);
  EXPECT_TRUE(is_valid_d2gc(g, r.colors));
}

}  // namespace
}  // namespace gcol
