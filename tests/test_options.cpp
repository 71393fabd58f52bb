#include "greedcolor/core/options.hpp"

#include <gtest/gtest.h>

namespace gcol {
namespace {

TEST(Presets, TableMatchesPaperSection6) {
  // V-V: ColPack's defaults.
  const auto vv = bgpc_preset("V-V");
  EXPECT_EQ(vv.chunk_size, 1);
  EXPECT_EQ(vv.queue, QueuePolicy::kShared);
  EXPECT_EQ(vv.net_color_rounds, 0);
  EXPECT_EQ(vv.net_conflict_rounds, 0);

  const auto vv64 = bgpc_preset("V-V-64");
  EXPECT_EQ(vv64.chunk_size, 64);
  EXPECT_EQ(vv64.queue, QueuePolicy::kShared);

  const auto vv64d = bgpc_preset("V-V-64D");
  EXPECT_EQ(vv64d.chunk_size, 64);
  EXPECT_EQ(vv64d.queue, QueuePolicy::kLazy);

  const auto vninf = bgpc_preset("V-Ninf");
  EXPECT_EQ(vninf.net_conflict_rounds, -1);
  EXPECT_EQ(vninf.net_color_rounds, 0);

  EXPECT_EQ(bgpc_preset("V-N1").net_conflict_rounds, 1);
  EXPECT_EQ(bgpc_preset("V-N2").net_conflict_rounds, 2);

  const auto n1n2 = bgpc_preset("N1-N2");
  EXPECT_EQ(n1n2.net_color_rounds, 1);
  EXPECT_EQ(n1n2.net_conflict_rounds, 2);

  const auto n2n2 = bgpc_preset("N2-N2");
  EXPECT_EQ(n2n2.net_color_rounds, 2);
  EXPECT_EQ(n2n2.net_conflict_rounds, 2);
}

TEST(Presets, UnicodeInfinityAliasAccepted) {
  EXPECT_EQ(bgpc_preset("V-N∞").net_conflict_rounds, -1);
  EXPECT_EQ(bgpc_preset("V-N∞").name, "V-Ninf");
}

TEST(Presets, NamesListMatchesPaperOrder) {
  const auto& names = bgpc_preset_names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "V-V");
  EXPECT_EQ(names.back(), "N2-N2");
  for (const auto& n : names) EXPECT_NO_THROW((void)bgpc_preset(n));
}

TEST(Presets, D2gcSubset) {
  const auto& names = d2gc_preset_names();
  ASSERT_EQ(names.size(), 4u);  // Table V's four algorithms
  for (const auto& n : names) EXPECT_NO_THROW((void)d2gc_preset(n));
  EXPECT_NO_THROW((void)d2gc_preset("V-V"));  // baseline allowed
  EXPECT_THROW((void)d2gc_preset("V-Ninf"), std::invalid_argument);
  EXPECT_THROW((void)d2gc_preset("N2-N2"), std::invalid_argument);
}

TEST(Validation, EveryFailureBranchFires) {
  ColoringOptions o;
  EXPECT_NO_THROW(o.validate());

  o = {};
  o.net_color_rounds = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = {};
  o.net_conflict_rounds = -2;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = {};
  o.net_color_rounds = 3;
  o.net_conflict_rounds = 2;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.net_conflict_rounds = -1;  // infinity covers any color rounds
  EXPECT_NO_THROW(o.validate());

  o = {};
  o.chunk_size = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = {};
  o.num_threads = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = {};
  o.max_rounds = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = {};
  o.net_v1 = true;  // needs a net-colored round
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(Options, ToStringLabels) {
  EXPECT_EQ(to_string(QueuePolicy::kShared), "shared");
  EXPECT_EQ(to_string(QueuePolicy::kLazy), "lazy");
  EXPECT_EQ(to_string(BalancePolicy::kNone), "U");
  EXPECT_EQ(to_string(BalancePolicy::kB1), "B1");
  EXPECT_EQ(to_string(BalancePolicy::kB2), "B2");
}

TEST(Options, UnknownPresetThrows) {
  EXPECT_THROW((void)bgpc_preset(""), std::invalid_argument);
  EXPECT_THROW((void)bgpc_preset("V-N3"), std::invalid_argument);
  EXPECT_THROW((void)bgpc_preset("ADAPTIVE"), std::invalid_argument);
}

}  // namespace
}  // namespace gcol
