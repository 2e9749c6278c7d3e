// Differential oracle for the arena rivals (gossip, adaptive gossip,
// counter- and distance-based suppression, RLNC): every scheme must
// produce bit-identical runs under the full-scan reference and the
// active-set scheduler, clean and under fault injection. The rivals are
// randomized, but their RNG draws hang off node state transitions,
// never off the scheduler — so scheduler identity is exact, not
// statistical.
#include <gtest/gtest.h>

#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"

namespace dsn {
namespace {

constexpr BroadcastScheme kRivals[] = {
    BroadcastScheme::kGossip, BroadcastScheme::kGossipAdaptive,
    BroadcastScheme::kCounter, BroadcastScheme::kDistance,
    BroadcastScheme::kRlnc};

ProtocolOptions withScheduling(ProtocolOptions opts, SimScheduling s) {
  opts.scheduling = s;
  return opts;
}

void expectSameTrace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.droppedEvents(), b.droppedEvents());
  for (std::size_t i = 0; i < a.events().size(); ++i)
    EXPECT_TRUE(a.events()[i] == b.events()[i])
        << "event " << i << ": " << obs::describeFrEvent(a.events()[i])
        << " vs " << obs::describeFrEvent(b.events()[i]);
}

void expectSameRun(const BroadcastRun& a, const BroadcastRun& b) {
  EXPECT_EQ(a.sim.rounds, b.sim.rounds);
  EXPECT_EQ(a.sim.completed, b.sim.completed);
  EXPECT_EQ(a.sim.totalTransmissions, b.sim.totalTransmissions);
  EXPECT_EQ(a.sim.totalDeliveries, b.sim.totalDeliveries);
  EXPECT_EQ(a.sim.totalCollisions, b.sim.totalCollisions);
  EXPECT_EQ(a.sim.droppedTransmissions, b.sim.droppedTransmissions);
  EXPECT_EQ(a.sim.jammedLosses, b.sim.jammedLosses);
  EXPECT_EQ(a.intended, b.intended);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.lastDeliveryRound, b.lastDeliveryRound);
  EXPECT_EQ(a.maxAwakeRounds, b.maxAwakeRounds);
  EXPECT_DOUBLE_EQ(a.meanAwakeRounds, b.meanAwakeRounds);
  EXPECT_EQ(a.decodeFailures, b.decodeFailures);
  EXPECT_EQ(a.deliveryRound, b.deliveryRound);
  EXPECT_EQ(a.listenRounds, b.listenRounds);
  EXPECT_EQ(a.transmitRounds, b.transmitRounds);
  expectSameTrace(a.trace, b.trace);
}

NetworkConfig paperNetwork(std::size_t n, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return cfg;
}

// ---- active-set vs full-scan ----

TEST(ArenaDifferentialTest, CleanRivalsActiveVsFullScan) {
  const SensorNetwork net(paperNetwork(140, 0xA4E7A01));
  ProtocolOptions opts;
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  for (const BroadcastScheme scheme : kRivals) {
    SCOPED_TRACE(toString(scheme));
    const auto active = net.broadcast(
        scheme, source, 7, withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, source, 7, withScheduling(opts, SimScheduling::kFullScan));
    expectSameRun(active, full);
  }
}

TEST(ArenaDifferentialTest, RivalsUnderDropsAndScheduledDeaths) {
  const SensorNetwork net(paperNetwork(150, 0xA4E7A02));
  ProtocolOptions opts;
  opts.dropProbability = 0.15;
  opts.deaths = {{5, 2}, {17, 0}, {33, 6}, {60, 10}};
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  for (const BroadcastScheme scheme : kRivals) {
    SCOPED_TRACE(toString(scheme));
    const auto active = net.broadcast(
        scheme, source, 11, withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, source, 11, withScheduling(opts, SimScheduling::kFullScan));
    expectSameRun(active, full);
  }
}

TEST(ArenaDifferentialTest, RivalsUnderBurstLossAndJamZones) {
  const SensorNetwork net(paperNetwork(130, 0xA4E7A03));
  ProtocolOptions opts;
  opts.burst.pEnterBurst = 0.1;
  opts.burst.pExitBurst = 0.3;
  opts.burst.dropBurst = 0.9;
  opts.jamZones.push_back(
      {Point2D{300.0, 300.0}, 180.0, /*from=*/2, /*until=*/25});
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  for (const BroadcastScheme scheme : kRivals) {
    SCOPED_TRACE(toString(scheme));
    const auto active = net.broadcast(
        scheme, source, 13, withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, source, 13, withScheduling(opts, SimScheduling::kFullScan));
    expectSameRun(active, full);
  }
}

}  // namespace
}  // namespace dsn
