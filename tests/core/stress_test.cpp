// Randomized operation-sequence stress: arbitrary interleavings of
// joins, departures, moves, group churn, compactions and broadcasts must
// never break an invariant or a delivery guarantee. This is the
// repository's fuzz harness — seeds are cheap to add when a bug needs a
// regression anchor.
#include <gtest/gtest.h>

#include <sstream>

#include "broadcast/convergecast.hpp"
#include "core/mobility.hpp"
#include "core/sensor_network.hpp"

namespace dsn {
namespace {

struct StressParam {
  std::uint64_t seed;
  std::size_t startNodes;
  int operations;
};

void PrintTo(const StressParam& p, std::ostream* os) {
  *os << "seed0x" << std::hex << std::uppercase << p.seed << std::dec
      << std::nouppercase << "_start" << p.startNodes << "_ops"
      << p.operations;
}

class StressSweep : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressSweep, RandomOperationSoup) {
  const auto p = GetParam();
  NetworkConfig cfg;
  cfg.nodeCount = p.startNodes;
  cfg.seed = p.seed;
  SensorNetwork net(cfg);
  Rng rng(p.seed ^ 0x57E55);
  RandomWaypointMobility walker(cfg.field, 60.0, p.seed ^ 0x90B);

  int validationsFailed = 0;
  std::ostringstream history;

  for (int op = 0; op < p.operations; ++op) {
    const double dice = rng.uniformReal();
    const auto nodes = net.clusterNet().netNodes();
    if (nodes.empty()) break;

    if (dice < 0.25) {
      // Join near a random in-net anchor.
      const NodeId anchor = nodes[rng.pickIndex(nodes)];
      const Point2D q{net.position(anchor).x + rng.uniformReal(-45, 45),
                      net.position(anchor).y + rng.uniformReal(-45, 45)};
      net.addSensor(q);
      history << "join;";
    } else if (dice < 0.45 && nodes.size() > 5) {
      net.removeSensor(nodes[rng.pickIndex(nodes)]);
      history << "leave;";
    } else if (dice < 0.65) {
      const NodeId v = nodes[rng.pickIndex(nodes)];
      net.moveSensor(v, walker.advance(v, net.position(v)));
      history << "move;";
    } else if (dice < 0.75) {
      const NodeId v = nodes[rng.pickIndex(nodes)];
      const GroupId g = 1 + static_cast<GroupId>(rng.uniform(3));
      if (net.clusterNet().inGroup(v, g))
        net.leaveGroup(v, g);
      else
        net.joinGroup(v, g);
      history << "group;";
    } else if (dice < 0.80) {
      net.clusterNet().compactSlots();
      history << "compact;";
    } else if (dice < 0.90) {
      const NodeId source = nodes[rng.pickIndex(nodes)];
      const auto run = net.broadcast(BroadcastScheme::kImprovedCff,
                                     source, 1);
      EXPECT_TRUE(run.allDelivered())
          << "broadcast failed after ops: " << history.str();
      history << "bcast;";
    } else {
      std::vector<std::uint64_t> values(net.graph().size(), 1);
      const auto gather = runConvergecast(net.clusterNet(), values);
      EXPECT_TRUE(gather.complete())
          << "gather failed after ops: " << history.str();
      EXPECT_EQ(gather.aggregate, net.clusterNet().netSize());
      history << "gather;";
    }

    const auto report = net.validate();
    if (!report.ok()) {
      ++validationsFailed;
      ADD_FAILURE() << "invariants broken at op " << op << " ("
                    << history.str() << "):\n"
                    << report.summary();
      break;
    }
  }
  EXPECT_EQ(validationsFailed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Soups, StressSweep,
    ::testing::Values(StressParam{0xA11CE, 120, 120},
                      StressParam{0xB0B, 80, 150},
                      StressParam{0xCA7, 200, 100},
                      StressParam{0xD0C, 60, 200},
                      StressParam{0xE66, 150, 120},
                      StressParam{0xF1F0, 40, 250}));

}  // namespace
}  // namespace dsn
