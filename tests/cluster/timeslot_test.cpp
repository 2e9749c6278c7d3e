// Time-slot machinery: conditions, interferer sets, lazy assignment,
// Lemma 2/3 bounds and the root's monotone knowledge.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "cluster/backbone.hpp"
#include "cluster/validate.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

using testutil::buildNet;
using testutil::randomNet;

TEST(TimeSlotTest, SingleClusterAssignsHeadLSlot) {
  // Star: head 0 with members. The head needs an l-slot so members can
  // receive; no b/u conflicts exist.
  const auto pts = deployStar(5, 50.0);
  auto f = buildNet(pts, 50.0);
  EXPECT_NE(f.net->lSlot(0), kNoSlot);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_TRUE(f.net->conditionHolds(SlotFamily::kL, v));
    EXPECT_EQ(f.net->interferers(SlotFamily::kL, v),
              std::vector<NodeId>{0});
  }
}

TEST(TimeSlotTest, LazySlots_FreshHeadHasNone) {
  // Path 0-1-2: node 2 is a fresh head with no children; it needs no
  // l-slot of its own (nothing to serve) — slots appear on demand.
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  EXPECT_EQ(net.lSlot(2), kNoSlot);
  EXPECT_EQ(net.uSlot(2), kNoSlot);
  // But its ancestors transmit: 1 (gateway) must hold b/u slots so 2 can
  // receive the floods.
  EXPECT_NE(net.bSlot(1), kNoSlot);
  EXPECT_NE(net.uSlot(1), kNoSlot);
  EXPECT_TRUE(net.conditionHolds(SlotFamily::kB, 2));
  EXPECT_TRUE(net.conditionHolds(SlotFamily::kU, 2));
}

TEST(TimeSlotTest, SlotAppearsWhenFirstChildArrives) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  ASSERT_EQ(net.lSlot(2), kNoSlot);
  net.moveIn(3);  // member under head 2
  EXPECT_NE(net.lSlot(2), kNoSlot);
  EXPECT_TRUE(net.conditionHolds(SlotFamily::kL, 3));
}

TEST(TimeSlotTest, InterfererSetsMatchDefinition) {
  auto f = randomNet(71, 120);
  const auto& net = *f.net;
  const auto& g = *f.graph;
  for (NodeId v : net.netNodes()) {
    if (net.isBackbone(v) && net.depth(v) > 0) {
      for (NodeId u : net.interferers(SlotFamily::kB, v)) {
        EXPECT_TRUE(g.hasEdge(u, v));
        EXPECT_TRUE(net.isBackbone(u));
        EXPECT_EQ(net.depth(u), net.depth(v) - 1);
      }
    }
    if (net.status(v) == NodeStatus::kPureMember) {
      for (NodeId u : net.interferers(SlotFamily::kL, v)) {
        EXPECT_TRUE(g.hasEdge(u, v));
        EXPECT_TRUE(net.isBackbone(u));  // strict: any backbone neighbor
      }
      // Parent is always in the interferer set.
      const auto inter = net.interferers(SlotFamily::kL, v);
      EXPECT_NE(std::find(inter.begin(), inter.end(), net.parent(v)),
                inter.end());
    }
  }
}

TEST(TimeSlotTest, PaperLocalRestrictsToPreviousDepth) {
  ClusterNetConfig cfg;
  cfg.slotPolicy = SlotPolicy::kPaperLocal;
  auto f = randomNet(72, 120, 10, 50.0, cfg);
  const auto& net = *f.net;
  for (NodeId v : net.netNodes()) {
    if (net.status(v) != NodeStatus::kPureMember) continue;
    for (NodeId u : net.interferers(SlotFamily::kL, v))
      EXPECT_EQ(net.depth(u), net.depth(v) - 1);
  }
}

TEST(TimeSlotTest, StrictPolicyNeverLoosensConditions) {
  // Strict interferer sets are supersets; any strict-valid assignment
  // also satisfies the paper-local condition.
  auto f = randomNet(73, 150);
  const auto& net = *f.net;
  for (NodeId v : net.netNodes()) {
    if (net.status(v) == NodeStatus::kPureMember) {
      EXPECT_TRUE(net.conditionHolds(SlotFamily::kL, v));
    } else if (v != net.root()) {
      EXPECT_TRUE(net.conditionHolds(SlotFamily::kB, v));
    }
    if (v != net.root()) {
      EXPECT_TRUE(net.conditionHolds(SlotFamily::kU, v));
    }
  }
}

TEST(TimeSlotTest, RootKnowledgeIsMonotoneUpperBound) {
  auto f = randomNet(74, 100);
  // The root's knowledge is a sound upper bound; it may exceed the true
  // maxima when a recalculation shrank some node's slot (the paper only
  // ever reports increases to the root).
  EXPECT_GE(f.net->rootMaxBSlot(), f.net->trueMaxSlot(SlotFamily::kB));
  EXPECT_GE(f.net->rootMaxLSlot(), f.net->trueMaxSlot(SlotFamily::kL));
  EXPECT_GE(f.net->rootMaxUSlot(), f.net->trueMaxSlot(SlotFamily::kU));
  EXPECT_GT(f.net->rootMaxLSlot(), 0u);
}

TEST(TimeSlotTest, RootKnowledgeStaysUpperBoundUnderChurn) {
  auto f = randomNet(75, 90);
  Rng rng(75);
  for (int i = 0; i < 20; ++i) {
    const auto nodes = f.net->netNodes();
    if (nodes.size() <= 2) break;
    f.net->moveOut(nodes[rng.pickIndex(nodes)]);
    EXPECT_GE(f.net->rootMaxBSlot(), f.net->trueMaxSlot(SlotFamily::kB));
    EXPECT_GE(f.net->rootMaxLSlot(), f.net->trueMaxSlot(SlotFamily::kL));
    EXPECT_GE(f.net->rootMaxUSlot(), f.net->trueMaxSlot(SlotFamily::kU));
  }
}

TEST(TimeSlotTest, LemmaBoundsHoldOnDenseNetworks) {
  // Dense field stresses the slot count.
  auto f = randomNet(76, 120, 3, 80.0);
  const auto stats = computeBackboneStats(*f.net);
  EXPECT_LE(stats.maxBSlot, stats.bSlotBound());
  EXPECT_LE(stats.maxLSlot, stats.lSlotBound());
  EXPECT_LE(stats.maxUSlot, stats.lSlotBound());
}

TEST(TimeSlotTest, SlotsAreSmallIntegers) {
  // Procedure 1 picks minimum free slots, so assignments stay compact:
  // every assigned slot is within 1..(#backbone nodes).
  auto f = randomNet(77, 200);
  const auto backbone = f.net->backboneNodes();
  for (NodeId v : backbone) {
    if (f.net->bSlot(v) != kNoSlot) {
      EXPECT_LE(f.net->bSlot(v), backbone.size());
    }
    if (f.net->lSlot(v) != kNoSlot) {
      EXPECT_LE(f.net->lSlot(v), backbone.size());
    }
  }
}

TEST(TimeSlotTest, ConditionQueriesValidateStatus) {
  Graph g(2);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.buildAll({0, 1});
  // 1 is a pure member: asking for its b-condition is a contract error.
  EXPECT_THROW(net.conditionHolds(SlotFamily::kB, 1), PreconditionError);
  // Root does not receive.
  EXPECT_THROW(net.conditionHolds(SlotFamily::kU, 0), PreconditionError);
  EXPECT_THROW(net.conditionHolds(SlotFamily::kL, 0), PreconditionError);
  // Up-slots follow their own rule (upConditionHolds).
  EXPECT_THROW(net.conditionHolds(SlotFamily::kUp, 1), PreconditionError);
}

TEST(TimeSlotTest, SharedNetChecksMatchSerialAcrossThreads) {
  // Read-only serve jobs validate one shared warm net from several
  // workers at once, so the condition checks must keep their scratch per
  // thread. Extra radio edges jam some receivers and join some heads, so
  // the outcome mixes holding and failing checks.
  auto f = randomNet(78, 200);
  Rng rng(78);
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform(200));
    const auto b = static_cast<NodeId>(rng.uniform(200));
    if (a != b && !f.graph->hasEdge(a, b)) f.graph->addEdge(a, b);
  }
  const ClusterNet& net = *f.net;
  // One pass: the validator's report, then every receiver's b-or-l and
  // u condition in node order.
  const auto pass = [&net] {
    std::string out = ClusterNetValidator::validate(net).summary();
    for (NodeId v : net.netNodes()) {
      if (v == net.root()) continue;
      const SlotFamily own =
          net.isBackbone(v) ? SlotFamily::kB : SlotFamily::kL;
      out += net.conditionHolds(own, v) ? '1' : '0';
      out += net.conditionHolds(SlotFamily::kU, v) ? '1' : '0';
    }
    return out;
  };
  const std::string serial = pass();
  ASSERT_NE(serial.find("Condition"), std::string::npos);
  ASSERT_NE(serial.find('1'), std::string::npos);

  std::vector<std::string> results(4);
  {
    std::vector<std::jthread> workers;
    for (std::string& r : results)
      workers.emplace_back([&r, &pass] {
        for (int i = 0; i < 8; ++i) r = pass();
      });
  }
  for (const std::string& r : results) EXPECT_EQ(r, serial);
}

}  // namespace
}  // namespace dsn
