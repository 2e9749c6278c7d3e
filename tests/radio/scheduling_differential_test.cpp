// Differential oracle for the active-set scheduler: every protocol
// family, with and without failure injection, must produce a run that is
// bit-identical to the full-scan reference — same rounds, same event
// trace, same per-node delivery rounds and energy. This is the contract
// that lets the perf work (DESIGN.md §12) change the simulator's cost
// model without changing its semantics.
#include <gtest/gtest.h>

#include "broadcast/convergecast.hpp"
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

void expectSameSim(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.totalTransmissions, b.totalTransmissions);
  EXPECT_EQ(a.totalDeliveries, b.totalDeliveries);
  EXPECT_EQ(a.totalCollisions, b.totalCollisions);
  EXPECT_EQ(a.droppedTransmissions, b.droppedTransmissions);
  EXPECT_EQ(a.jammedLosses, b.jammedLosses);
}

void expectSameRun(const BroadcastRun& a, const BroadcastRun& b) {
  expectSameSim(a.sim, b.sim);
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

void expectSameGather(const GatherResult& a, const GatherResult& b) {
  expectSameSim(a.sim, b.sim);
  EXPECT_EQ(a.aggregate, b.aggregate);
  EXPECT_EQ(a.contributors, b.contributors);
  EXPECT_EQ(a.expected, b.expected);
  EXPECT_EQ(a.scheduleLength, b.scheduleLength);
  EXPECT_EQ(a.maxAwakeRounds, b.maxAwakeRounds);
  EXPECT_DOUBLE_EQ(a.meanAwakeRounds, b.meanAwakeRounds);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
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

// Convergecast: every node reports up through its depth's gather window.
// Each net runs clean, under drops with deaths spread over the schedule,
// and after an unrepaired crash of an inner node (its parent listens out
// the whole window for it), at one and three channels.
TEST(SchedulingDifferentialTest, ConvergecastGather) {
  for (const std::uint64_t seed : {0xD1FF08ull, 0xD1FF09ull, 0xD1FF0Aull}) {
    SCOPED_TRACE(seed);
    SensorNetwork net(paperNetwork(150, seed));
    std::vector<std::uint64_t> values(net.graph().size());
    for (NodeId v = 0; v < values.size(); ++v) values[v] = 1 + v % 17;
    const auto compare = [&](const ProtocolOptions& opts) {
      const auto active = runConvergecast(
          net.clusterNet(), values,
          withScheduling(opts, SimScheduling::kActiveSet));
      const auto full = runConvergecast(
          net.clusterNet(), values,
          withScheduling(opts, SimScheduling::kFullScan));
      expectSameGather(active, full);
      return full;
    };
    for (const Channel k : {Channel{1}, Channel{3}}) {
      SCOPED_TRACE(k);
      ProtocolOptions opts;
      opts.channels = k;
      opts.traceCapacity = 1 << 16;
      const Round schedule = compare(opts).scheduleLength;
      ProtocolOptions lossy = opts;
      lossy.dropProbability = 0.1;
      lossy.deaths = {{5, 0},
                      {17, schedule / 4},
                      {33, schedule / 2},
                      {60, 3 * schedule / 4}};
      compare(lossy);
    }
    // Crash the first non-root node with children, without repair.
    for (NodeId v : net.clusterNet().netNodes()) {
      if (v == net.clusterNet().root() || net.clusterNet().children(v).empty())
        continue;
      net.crashSensor(v);
      break;
    }
    ASSERT_TRUE(net.hasStaleStructure());
    for (const Channel k : {Channel{1}, Channel{3}}) {
      SCOPED_TRACE(k);
      ProtocolOptions opts;
      opts.channels = k;
      opts.traceCapacity = 1 << 16;
      EXPECT_FALSE(compare(opts).complete());
    }
  }
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
