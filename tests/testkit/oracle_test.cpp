// The fuzz oracles against known-good (and deliberately corrupted)
// inputs: spec checker, CFF plan seam, first-principles reference
// simulator, and the trace-consistency axioms.
#include <gtest/gtest.h>

#include <sstream>

#include "broadcast/cff_flooding.hpp"
#include "core/sensor_network.hpp"
#include "testkit/reference_radio.hpp"
#include "testkit/spec_check.hpp"

namespace dsn::testkit {
namespace {

SensorNetwork makeNet(std::size_t nodes, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.field = Field::squareUnits(4);
  cfg.nodeCount = nodes;
  cfg.seed = seed;
  return SensorNetwork(cfg);
}

/// First net node that is not the root (deterministic non-trivial
/// source, so the plan has a real source->root path leg).
NodeId nonRootSource(const SensorNetwork& net) {
  const ClusterNet& cn = net.clusterNet();
  for (NodeId v = 0; v < net.graph().size(); ++v) {
    if (cn.contains(v) && v != cn.root()) return v;
  }
  return cn.root();
}

TEST(CffSwarmTest, SwarmRunMatchesPerObjectPlanRunExactly) {
  // runCffBroadcast drives one SoA CffSwarm; runCffPlan drives the
  // reference per-object CffNodeProtocol machines from the identical plan.
  // Same schedule, same simulator: the runs must agree event for event —
  // this pins the SoA port to the original state machine.
  for (std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{23},
                             std::uint64_t{2007}}) {
    SensorNetwork net = makeNet(90, seed);
    const NodeId source = nonRootSource(net);
    ProtocolOptions opts;
    opts.traceCapacity = 1 << 15;

    const BroadcastRun swarm =
        net.broadcast(BroadcastScheme::kCff, source, 0xDA7A, opts);
    const CffPlan plan =
        buildCffPlan(net.clusterNet(), source, 0xDA7A, opts);
    const BroadcastRun objects = runCffPlan(net.clusterNet(), plan, opts);

    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(swarm.sim.rounds, objects.sim.rounds);
    EXPECT_EQ(swarm.sim.completed, objects.sim.completed);
    EXPECT_EQ(swarm.sim.totalTransmissions, objects.sim.totalTransmissions);
    EXPECT_EQ(swarm.sim.totalDeliveries, objects.sim.totalDeliveries);
    EXPECT_EQ(swarm.sim.totalCollisions, objects.sim.totalCollisions);
    EXPECT_EQ(swarm.intended, objects.intended);
    EXPECT_EQ(swarm.delivered, objects.delivered);
    EXPECT_EQ(swarm.lastDeliveryRound, objects.lastDeliveryRound);
    EXPECT_EQ(swarm.deliveryRound, objects.deliveryRound);
    EXPECT_EQ(swarm.listenRounds, objects.listenRounds);
    EXPECT_EQ(swarm.transmitRounds, objects.transmitRounds);
    ASSERT_EQ(swarm.trace.events().size(), objects.trace.events().size());
    for (std::size_t i = 0; i < swarm.trace.events().size(); ++i)
      EXPECT_TRUE(swarm.trace.events()[i] == objects.trace.events()[i])
          << "event " << i << ": "
          << obs::describeFrEvent(swarm.trace.events()[i]) << " vs "
          << obs::describeFrEvent(objects.trace.events()[i]);
  }
}

TEST(SpecCheckTest, CleanOnFreshDeployments) {
  for (std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{7},
                             std::uint64_t{2007}}) {
    SensorNetwork net = makeNet(70, seed);
    ASSERT_TRUE(net.validate().ok());
    const auto issues = checkSpec(net.clusterNet());
    EXPECT_TRUE(issues.empty())
        << "seed " << seed << ": " << describeIssues(issues);
  }
}

TEST(SpecCheckTest, AgreesWithValidatorUnderChurn) {
  SensorNetwork net = makeNet(60, 11);
  bool removed = false;
  net.removeSensor(5);
  net.addSensor({150.0, 210.0}, &removed);
  net.removeSensor(9);
  ASSERT_TRUE(net.validate().ok());
  EXPECT_TRUE(checkSpec(net.clusterNet()).empty());
}

TEST(SpecCheckTest, FlagsStaleStructureAfterCrash) {
  SensorNetwork net = makeNet(50, 5);
  // Crash a non-root node: the structure now references a dead node.
  const NodeId victim = nonRootSource(net);
  net.crashSensor(victim);
  ASSERT_TRUE(net.hasStaleStructure());
  const auto issues = checkSpec(net.clusterNet());
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().cls, "spec-stale");
  // And both oracles agree the repaired net is clean again.
  net.repairAfterFailures();
  EXPECT_TRUE(net.validate().ok());
  EXPECT_TRUE(checkSpec(net.clusterNet()).empty());
}

// The plan seam must be behaviourally invisible: building the plan and
// running it reproduces runCffBroadcast exactly.
TEST(CffPlanTest, UnmodifiedPlanMatchesRunCffBroadcast) {
  SensorNetwork net = makeNet(70, 13);
  const NodeId source = nonRootSource(net);
  ProtocolOptions options;
  options.traceCapacity = 8192;

  const CffPlan plan =
      buildCffPlan(net.clusterNet(), source, 0xDA7A, options);
  const BroadcastRun direct =
      runCffBroadcast(net.clusterNet(), source, 0xDA7A, options);
  const BroadcastRun viaPlan = runCffPlan(net.clusterNet(), plan, options);

  EXPECT_EQ(viaPlan.delivered, direct.delivered);
  EXPECT_EQ(viaPlan.transmissions, direct.transmissions);
  EXPECT_EQ(viaPlan.collisions, direct.collisions);
  EXPECT_EQ(viaPlan.lastDeliveryRound, direct.lastDeliveryRound);
  EXPECT_EQ(viaPlan.scheduleLength, direct.scheduleLength);
  EXPECT_EQ(viaPlan.deliveryRound, direct.deliveryRound);
  EXPECT_TRUE(viaPlan.allDelivered());
}

TEST(CffPlanTest, ReferenceSimulatorAgreesWithProduction) {
  for (std::uint64_t seed : {std::uint64_t{13}, std::uint64_t{21},
                             std::uint64_t{34}}) {
    SensorNetwork net = makeNet(60, seed);
    const NodeId source = nonRootSource(net);
    const CffPlan plan = buildCffPlan(net.clusterNet(), source, 0xDA7A);

    const BroadcastRun prod = runCffPlan(net.clusterNet(), plan);
    const ReferenceRun ref = runCffPlanReference(net.graph(), plan);

    EXPECT_EQ(ref.intended, prod.intended) << "seed " << seed;
    EXPECT_EQ(ref.delivered, prod.delivered) << "seed " << seed;
    EXPECT_EQ(ref.transmissions, prod.transmissions) << "seed " << seed;
    EXPECT_EQ(ref.collisions, prod.collisions) << "seed " << seed;
    EXPECT_EQ(ref.deliveryRound, prod.deliveryRound) << "seed " << seed;
  }
}

// The injected slot-collision bug starves some listener, and the
// coverage oracle sees it — in both simulators identically.
TEST(CffPlanTest, InjectedSlotBugBreaksCoverage) {
  bool injectedSomewhere = false;
  for (std::uint64_t seed = 1; seed <= 12 && !injectedSomewhere; ++seed) {
    SensorNetwork net = makeNet(80, seed);
    const NodeId source = net.clusterNet().root();
    CffPlan plan = buildCffPlan(net.clusterNet(), source, 0xDA7A);
    if (!injectCffSlotCollision(plan, net.clusterNet())) continue;
    injectedSomewhere = true;

    const BroadcastRun prod = runCffPlan(net.clusterNet(), plan);
    const ReferenceRun ref = runCffPlanReference(net.graph(), plan);
    EXPECT_LT(prod.delivered, prod.intended)
        << "seed " << seed << ": corrupted plan still reached everyone";
    EXPECT_EQ(ref.delivered, prod.delivered) << "seed " << seed;
  }
  EXPECT_TRUE(injectedSomewhere)
      << "no deployment offered a vulnerable listener";
}

TEST(TraceConsistencyTest, AcceptsRealBroadcastTraces) {
  SensorNetwork net = makeNet(60, 17);
  ProtocolOptions options;
  options.traceCapacity = 16384;
  const BroadcastRun run =
      runCffBroadcast(net.clusterNet(), net.clusterNet().root(), 0xDA7A,
                      options);
  ASSERT_EQ(run.trace.droppedEvents(), 0u);
  const auto issues =
      checkTraceConsistency(run.trace, net.graph(), options.channels);
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(TraceConsistencyTest, RejectsUnjustifiedReceive) {
  SensorNetwork net = makeNet(30, 19);
  Trace doctored(16);
  // A receive with no matching on-air transmission anywhere.
  doctored.record(obs::makeFrEvent(obs::FrType::kDelivery, 2, 0, 1));
  const auto issues = checkTraceConsistency(doctored, net.graph(), 1);
  EXPECT_FALSE(issues.empty());
}

TEST(TraceConsistencyTest, RejectsPhantomCollision) {
  SensorNetwork net = makeNet(30, 19);
  const NodeId listener = 0;
  ASSERT_FALSE(net.graph().neighbors(listener).empty());
  const NodeId talker = net.graph().neighbors(listener).front();
  Trace doctored(16);
  // One transmitter on the air, yet a collision is claimed at a
  // neighbor: the axioms require at least two.
  doctored.record(obs::makeFrEvent(obs::FrType::kTransmit, 4, talker));
  doctored.record(obs::makeFrEvent(obs::FrType::kCollision, 4, listener));
  const auto issues = checkTraceConsistency(doctored, net.graph(), 1);
  EXPECT_FALSE(issues.empty());
}

TEST(TraceConsistencyTest, SkipsOverflowedTraces) {
  SensorNetwork net = makeNet(30, 19);
  Trace tiny(1);
  tiny.record(obs::makeFrEvent(obs::FrType::kDelivery, 2, 0, 1));
  tiny.record(obs::makeFrEvent(obs::FrType::kDelivery, 3, 0, 1));
  ASSERT_GT(tiny.droppedEvents(), 0u);
  // A partial view must not be judged at all.
  EXPECT_TRUE(checkTraceConsistency(tiny, net.graph(), 1).empty());
}

}  // namespace
}  // namespace dsn::testkit
