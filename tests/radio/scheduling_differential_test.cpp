// Differential oracle for the active-set scheduler: every protocol
// family, with and without failure injection, must produce a run that is
// bit-identical to the full-scan reference — same rounds, same event
// trace, same per-node delivery rounds and energy. This is the contract
// that lets the perf work (DESIGN.md §12) change the simulator's cost
// model without changing its semantics.
#include <gtest/gtest.h>

#include "broadcast/flooding_baseline.hpp"
#include "broadcast/reliable.hpp"
#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"
#include "radio/wake_calendar.hpp"

namespace dsn {
namespace {

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

TEST(SchedulingDifferentialTest, CleanBroadcastsAllSchemes) {
  const SensorNetwork net(paperNetwork(140, 0xD1FF01));
  ProtocolOptions opts;
  opts.traceCapacity = 1 << 16;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff,
        BroadcastScheme::kDfo}) {
    const NodeId source = net.clusterNet().root();
    const auto active = net.broadcast(
        scheme, source, 7,
        withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, source, 7, withScheduling(opts, SimScheduling::kFullScan));
    SCOPED_TRACE(toString(scheme));
    expectSameRun(active, full);
  }
}

TEST(SchedulingDifferentialTest, MultiChannelCff) {
  const SensorNetwork net(paperNetwork(160, 0xD1FF02));
  ProtocolOptions opts;
  opts.channels = 3;
  opts.traceCapacity = 1 << 16;
  const auto active =
      net.broadcast(BroadcastScheme::kCff, net.clusterNet().root(), 9,
                    withScheduling(opts, SimScheduling::kActiveSet));
  const auto full =
      net.broadcast(BroadcastScheme::kCff, net.clusterNet().root(), 9,
                    withScheduling(opts, SimScheduling::kFullScan));
  expectSameRun(active, full);
}

TEST(SchedulingDifferentialTest, DropsAndScheduledDeaths) {
  const SensorNetwork net(paperNetwork(150, 0xD1FF03));
  ProtocolOptions opts;
  opts.dropProbability = 0.15;
  opts.deaths = {{5, 2}, {17, 0}, {33, 6}, {60, 10}};
  opts.traceCapacity = 1 << 16;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    const auto active = net.broadcast(
        scheme, net.clusterNet().root(), 11,
        withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, net.clusterNet().root(), 11,
        withScheduling(opts, SimScheduling::kFullScan));
    SCOPED_TRACE(toString(scheme));
    expectSameRun(active, full);
  }
}

TEST(SchedulingDifferentialTest, BurstLossAndJamZones) {
  const SensorNetwork net(paperNetwork(130, 0xD1FF04));
  ProtocolOptions opts;
  opts.burst.pEnterBurst = 0.1;
  opts.burst.pExitBurst = 0.3;
  opts.burst.dropBurst = 0.9;
  opts.jamZones.push_back(
      {Point2D{300.0, 300.0}, 180.0, /*from=*/2, /*until=*/25});
  opts.traceCapacity = 1 << 16;
  const auto active =
      net.broadcast(BroadcastScheme::kImprovedCff, net.clusterNet().root(), 13,
                    withScheduling(opts, SimScheduling::kActiveSet));
  const auto full =
      net.broadcast(BroadcastScheme::kImprovedCff, net.clusterNet().root(), 13,
                    withScheduling(opts, SimScheduling::kFullScan));
  expectSameRun(active, full);
}

// A 5,000-node line rooted at one end floods one depth per round, so a
// broadcast from the root takes 5,000 rounds and one from mid-line
// 7,500. Every wake queued at round 0 for a round past
// WakeCalendar::kMaxHorizon reaches the ring only through the
// calendar's overflow heap.
NetworkConfig longLine() {
  NetworkConfig cfg = paperNetwork(5000, 0xD1FF07);
  cfg.deployment = DeploymentKind::kLine;
  return cfg;
}

TEST(SchedulingDifferentialTest, LongLineWakesBeyondHorizon) {
  const SensorNetwork net(longLine());
  ProtocolOptions opts;
  opts.traceCapacity = 1 << 16;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    SCOPED_TRACE(toString(scheme));
    const NodeId source = net.clusterNet().root();
    const auto active = net.broadcast(
        scheme, source, 23, withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, source, 23, withScheduling(opts, SimScheduling::kFullScan));
    EXPECT_GT(active.lastDeliveryRound,
              static_cast<Round>(WakeCalendar::kMaxHorizon));
    expectSameRun(active, full);
  }
}

TEST(SchedulingDifferentialTest, LongLineWakesBeyondHorizonWithDrops) {
  const SensorNetwork net(longLine());
  ProtocolOptions opts;
  opts.dropProbability = 0.0005;
  opts.traceCapacity = 1 << 16;
  // A mid-line source first relays the payload up the path to the root.
  const NodeId source = 2500;
  const auto active =
      net.broadcast(BroadcastScheme::kCff, source, 29,
                    withScheduling(opts, SimScheduling::kActiveSet));
  const auto full =
      net.broadcast(BroadcastScheme::kCff, source, 29,
                    withScheduling(opts, SimScheduling::kFullScan));
  EXPECT_GT(active.sim.droppedTransmissions, 0u);
  EXPECT_GT(active.lastDeliveryRound,
            static_cast<Round>(WakeCalendar::kMaxHorizon));
  expectSameRun(active, full);
}

TEST(SchedulingDifferentialTest, FloodingBaselineWithDrops) {
  const SensorNetwork net(paperNetwork(120, 0xD1FF05));
  FloodingConfig fc;
  ProtocolOptions opts;
  opts.dropProbability = 0.1;
  opts.traceCapacity = 1 << 16;
  const auto active = runFloodingBroadcast(
      net.graph(), net.clusterNet().root(), 17, fc,
      withScheduling(opts, SimScheduling::kActiveSet));
  const auto full = runFloodingBroadcast(
      net.graph(), net.clusterNet().root(), 17, fc,
      withScheduling(opts, SimScheduling::kFullScan));
  expectSameRun(active, full);
}

TEST(SchedulingDifferentialTest, ReliableBroadcastRepairRounds) {
  const SensorNetwork net(paperNetwork(140, 0xD1FF06));
  ReliableOptions opts;
  opts.base.dropProbability = 0.25;  // force the NACK/repair machinery
  const auto run = [&](SimScheduling s) {
    ReliableOptions o = opts;
    o.base.scheduling = s;
    return net.reliableBroadcast(BroadcastScheme::kCff, net.clusterNet().root(), 19, o);
  };
  const auto active = run(SimScheduling::kActiveSet);
  const auto full = run(SimScheduling::kFullScan);
  EXPECT_EQ(active.intended, full.intended);
  EXPECT_EQ(active.delivered, full.delivered);
  EXPECT_EQ(active.repairRoundsUsed, full.repairRoundsUsed);
  EXPECT_EQ(active.nacksSent, full.nacksSent);
  expectSameRun(active.wave, full.wave);
}

}  // namespace
}  // namespace dsn
