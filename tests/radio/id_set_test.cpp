// IdSet against a std::set model: members come out ascending, a drain
// leaves the set empty, repeated inserts are refused, and growth keeps
// the members — across the word (64) and summary-word (4096) edges and
// at the bound itself.
#include "radio/id_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.hpp"

namespace dsn {
namespace {

std::vector<NodeId> drained(IdSet& set) {
  std::vector<NodeId> out;
  set.drain([&out](NodeId v) { out.push_back(v); });
  return out;
}

std::vector<NodeId> ascending(const std::set<NodeId>& model) {
  return {model.begin(), model.end()};
}

TEST(IdSetTest, EdgeIdsDrainAscendingAndLeaveTheSetEmpty) {
  constexpr std::size_t kBound = 3 * 4096 + 5;
  IdSet set;
  set.grow(kBound);
  ASSERT_GE(set.capacity(), kBound);
  const std::vector<NodeId> ids{kBound - 1, 4096, 63, 0, 4095, 64, 8191};
  std::set<NodeId> model;
  for (const NodeId v : ids) {
    EXPECT_TRUE(set.insert(v)) << v;
    model.insert(v);
  }
  EXPECT_FALSE(set.insert(63));
  EXPECT_FALSE(set.insert(kBound - 1));
  EXPECT_EQ(drained(set), ascending(model));
  EXPECT_TRUE(drained(set).empty());
  // Drained members are insertable again.
  EXPECT_TRUE(set.insert(63));
  EXPECT_EQ(drained(set), std::vector<NodeId>{63});
}

TEST(IdSetTest, GrowthKeepsMembers) {
  IdSet set;
  set.grow(100);
  EXPECT_TRUE(set.insert(99));
  EXPECT_TRUE(set.insert(5));
  set.grow(10);  // never shrinks
  EXPECT_GE(set.capacity(), 100u);
  set.grow(5000);
  ASSERT_GE(set.capacity(), 5000u);
  EXPECT_FALSE(set.insert(99));
  EXPECT_TRUE(set.insert(4999));
  EXPECT_TRUE(set.insert(4096));
  EXPECT_EQ(drained(set), (std::vector<NodeId>{5, 99, 4096, 4999}));
}

TEST(IdSetTest, MatchesASetModelOverRandomRounds) {
  Rng rng(0x1D5E7);
  IdSet set;
  std::set<NodeId> model;
  std::size_t bound = 1;
  set.grow(bound);
  for (int round = 0; round < 300; ++round) {
    if (rng.chance(0.1)) {
      bound += static_cast<std::size_t>(rng.uniformInt(1, 3000));
      set.grow(bound);
    }
    const auto inserts = rng.uniformInt(0, 200);
    for (std::int64_t i = 0; i < inserts; ++i) {
      const auto v = static_cast<NodeId>(
          rng.uniformInt(0, static_cast<std::int64_t>(bound) - 1));
      EXPECT_EQ(set.insert(v), model.insert(v).second) << v;
    }
    if (rng.chance(0.7)) {
      ASSERT_EQ(drained(set), ascending(model)) << "round " << round;
      model.clear();
    }
  }
  EXPECT_EQ(drained(set), ascending(model));
}

}  // namespace
}  // namespace dsn
