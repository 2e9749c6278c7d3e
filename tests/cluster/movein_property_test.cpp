// Property-based sweeps: after EVERY node-move-in on randomly grown
// networks, the full invariant set (Definition 1, Property 1, Time-Slot
// Conditions, Lemma bounds, the net's height, root knowledge) must hold.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "cluster/backbone.hpp"
#include "cluster/validate.hpp"
#include "graph/algorithms.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

struct SweepParam {
  std::uint64_t seed;
  std::size_t n;
  int fieldUnits;
  double range;
  SlotPolicy policy;
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_n" << p.n << "_field" << p.fieldUnits
      << "_range" << p.range << '_'
      << (p.policy == SlotPolicy::kStrict ? "strict" : "paperLocal");
}

class MoveInSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MoveInSweep, InvariantsHoldAfterEveryInsertion) {
  const auto p = GetParam();
  Rng rng(p.seed);
  const DeployConfig dc{Field::squareUnits(p.fieldUnits), p.range, p.n};
  const auto pts = deployIncrementalAttach(dc, rng);
  Graph g = buildUnitDiskGraph(pts, p.range);
  ClusterNetConfig cfg;
  cfg.slotPolicy = p.policy;
  ClusterNet net(g, cfg);

  for (NodeId v = 0; v < pts.size(); ++v) {
    net.moveIn(v);
    // Validating after every insertion is the actual property; to keep
    // runtime sane validate every few steps plus the final state.
    if (v % 7 == 0 || v + 1 == pts.size()) {
      const auto report = ClusterNetValidator::validate(net);
      ASSERT_TRUE(report.ok())
          << "after inserting node " << v << ":\n"
          << report.summary();
    }
  }
  EXPECT_EQ(net.netSize(), p.n);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGrowth, MoveInSweep,
    ::testing::Values(
        SweepParam{101, 60, 8, 50.0, SlotPolicy::kStrict},
        SweepParam{102, 120, 10, 50.0, SlotPolicy::kStrict},
        SweepParam{103, 200, 10, 50.0, SlotPolicy::kStrict},
        SweepParam{104, 120, 12, 50.0, SlotPolicy::kStrict},
        SweepParam{105, 80, 4, 60.0, SlotPolicy::kStrict},   // dense
        SweepParam{106, 150, 16, 50.0, SlotPolicy::kStrict}, // sparse
        SweepParam{201, 60, 8, 50.0, SlotPolicy::kPaperLocal},
        SweepParam{202, 120, 10, 50.0, SlotPolicy::kPaperLocal},
        SweepParam{203, 200, 10, 50.0, SlotPolicy::kPaperLocal},
        SweepParam{204, 80, 4, 60.0, SlotPolicy::kPaperLocal}));

TEST(MoveInCostTest, AttachCostEqualsDegreeSum) {
  auto f = testutil::randomNet(7, 80);
  // Each insert charges exactly d_new = degree at insertion time; the
  // total must therefore be bounded by the final degree sum (degrees only
  // grow as later nodes arrive) and be positive.
  std::int64_t degreeSum = 0;
  for (NodeId v : f.graph->liveNodes())
    degreeSum += static_cast<std::int64_t>(f.graph->degree(v));
  EXPECT_GT(f.net->costs().attach, 0);
  EXPECT_LE(f.net->costs().attach, degreeSum);
}

TEST(MoveInCostTest, PerOperationCostWithinTheoremTwoBound) {
  // Theorem 2(2): knowledge-II upkeep adds O(2h + 2d + D) rounds per
  // insertion. Check each single insertion against a generous constant
  // multiple of that bound.
  Rng rng(31);
  const DeployConfig dc{Field::squareUnits(10), 50.0, 150};
  const auto pts = deployIncrementalAttach(dc, rng);
  Graph g = buildUnitDiskGraph(pts, 50.0);
  ClusterNet net(g);
  net.moveIn(0);
  for (NodeId v = 1; v < pts.size(); ++v) {
    const RoundCost before = net.costs();
    net.moveIn(v);
    const RoundCost delta = net.costs() - before;
    const auto stats = computeBackboneStats(net);
    const auto h = static_cast<std::int64_t>(stats.cnetHeight);
    const auto d = static_cast<std::int64_t>(stats.degreeBackbone);
    const auto D = static_cast<std::int64_t>(stats.degreeG);
    const std::int64_t dNew = static_cast<std::int64_t>(g.degree(v));
    // attach <= d_new; slot updates: up to ~5 procedure runs (b/l/u for
    // the leaf + promotion repairs), each 1 + listeners <= 1 + D; root
    // path traffic <= a few multiples of h.
    EXPECT_LE(delta.total(), dNew + 6 * (1 + D) + 8 * (h + 1) + 2 * d)
        << "insertion of node " << v;
  }
}

TEST(MoveInTest, HeightsStayExactUnderRandomGrowth) {
  auto f = testutil::randomNet(57, 140);
  // The validator checks the height against its BFS; spot-check it
  // equals the max depth over nodes.
  Depth maxDepth = 0;
  for (NodeId v : f.net->netNodes())
    maxDepth = std::max(maxDepth, f.net->depth(v));
  EXPECT_EQ(f.net->height(), maxDepth);
}

TEST(MoveInTest, BackboneSmallerThanNetwork) {
  auto f = testutil::randomNet(58, 200);
  const auto stats = computeBackboneStats(*f.net);
  EXPECT_LT(stats.backboneSize, stats.networkSize);
  EXPECT_LE(static_cast<std::size_t>(stats.backboneHeight),
            stats.backboneSize);
  EXPECT_GE(stats.cnetHeight, stats.backboneHeight);
}

TEST(MoveInTest, SlotsStayWellBelowLemmaBounds) {
  // Section 6 observation: measured slots are far below d(d+1)/2+1 and
  // D(D+1)/2+1 — in the simulation "even smaller than d and D".
  auto f = testutil::randomNet(59, 250);
  const auto stats = computeBackboneStats(*f.net);
  EXPECT_LE(stats.maxBSlot, stats.bSlotBound());
  EXPECT_LE(stats.maxLSlot, stats.lSlotBound());
  // The much tighter empirical claim (δ <= d, Δ <= D) — allow slack of 2x
  // to keep the property robust across seeds.
  EXPECT_LE(stats.maxBSlot, 2 * stats.degreeBackbone + 1);
  EXPECT_LE(stats.maxLSlot, 2 * stats.degreeG + 1);
}

}  // namespace
}  // namespace dsn
