// Differential oracle for the active-set scheduler: every protocol
// family, with and without failure injection, must produce a run that is
// bit-identical to the full-scan reference — same rounds, same event
// trace, same per-node delivery rounds and energy. This is the contract
// that lets the perf work (DESIGN.md §12) change the simulator's cost
// model without changing its semantics.
#include <gtest/gtest.h>

#include "broadcast/convergecast.hpp"
#include "broadcast/reliable.hpp"
#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"
#include "graph/deploy.hpp"
#include "graph/unit_disk.hpp"
#include "radio/simulator.hpp"
#include "radio/wake_calendar.hpp"
#include "util/rng.hpp"

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
  ProtocolOptions opts;
  opts.dropProbability = 0.1;
  opts.traceCapacity = 1 << 16;
  opts.arena.seed = 0xF100D;
  const auto active = runRivalBroadcast(
      BroadcastScheme::kFlooding, net.graph(), net.clusterNet().root(), 17,
      withScheduling(opts, SimScheduling::kActiveSet));
  const auto full = runRivalBroadcast(
      BroadcastScheme::kFlooding, net.graph(), net.clusterNet().root(), 17,
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

/// Every node beacons on channel v % k once per kPeriod rounds (staggered
/// by id), listens for the kListenRounds rounds after each beacon and
/// sleeps the rest of the period. Even ids listen wide-band; odd ids
/// listen tuned to channel (v / 2) % k. A node is done after kBeacons
/// beacons and then sleeps forever.
class TunedBeaconSwarm final : public SwarmProtocol {
 public:
  static constexpr Round kPeriod = 8;
  static constexpr Round kListenRounds = 3;
  static constexpr std::uint32_t kBeacons = 5;

  TunedBeaconSwarm(std::size_t nodes, Channel channels)
      : channels_(channels), sent_(nodes, 0) {}

  Action onRound(NodeId v, Round r) override {
    if (isDone(v)) return Action::sleep();
    const Round phase = (r + static_cast<Round>(v)) % kPeriod;
    if (phase == 0) {
      Message m;
      m.sender = v;
      m.payload = static_cast<std::uint64_t>(v) * kBeacons + sent_[v]++;
      return Action::transmit(m, static_cast<Channel>(v % channels_));
    }
    if (phase > kListenRounds) return Action::sleep();
    return Action::listen(v % 2 == 0
                              ? kAllChannels
                              : static_cast<Channel>(v / 2 % channels_));
  }
  void onReceive(NodeId, const Message&, Round, Channel) override {}
  bool isDone(NodeId v) const override { return sent_[v] >= kBeacons; }
  Round nextWake(NodeId v, Round now) const override {
    if (isDone(v)) return kNoWake;
    Round r = now + 1;
    while ((r + static_cast<Round>(v)) % kPeriod > kListenRounds) ++r;
    return r;
  }

 private:
  Channel channels_;
  std::vector<std::uint32_t> sent_;
};

/// FNV-1a over every field of every event, in order.
std::uint64_t traceDigest(const Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  for (const obs::FrEvent& e : trace.events()) {
    mix(e.round);
    mix(e.node);
    mix(e.data);
    mix(e.type);
    mix(e.channel);
    mix(e.aux);
  }
  return h;
}

// No shipped swarm listens on one channel, so this is the engine-level
// case for tuned listeners: k = 3, wide-band and tuned listeners side by
// side, under drops and two scheduled deaths.
TEST(SchedulingDifferentialTest, TunedListenersAcrossChannels) {
  constexpr Channel kChannels = 3;
  Rng rng(0x7E7ED);
  const Graph g = buildUnitDiskGraph(
      deployIncrementalAttach({Field::squareUnits(10), 50.0, 2000}, rng),
      50.0);
  const auto run = [&](SimScheduling scheduling) {
    SimConfig cfg;
    cfg.channelCount = kChannels;
    cfg.maxRounds = 1000;
    cfg.traceCapacity = 1 << 18;
    cfg.scheduling = scheduling;
    auto sim = std::make_unique<RadioSimulator>(g, cfg);
    std::vector<NodeId> members(g.size());
    for (NodeId v = 0; v < g.size(); ++v) members[v] = v;
    sim->setSwarm(std::make_unique<TunedBeaconSwarm>(g.size(), kChannels),
                  members);
    sim->failures() = FailureModel(0xD1FF0B);
    sim->failures().setDropProbability(0.05);
    sim->failures().killAt(17, 6);
    sim->failures().killAt(1234, 20);
    const SimResult result = sim->run();
    return std::make_pair(std::move(sim), result);
  };
  const auto [active, activeResult] = run(SimScheduling::kActiveSet);
  const auto [full, fullResult] = run(SimScheduling::kFullScan);

  expectSameSim(activeResult, fullResult);
  expectSameTrace(active->trace(), full->trace());
  for (NodeId v = 0; v < g.size(); ++v) {
    const NodeEnergy& a = active->energy().node(v);
    const NodeEnergy& b = full->energy().node(v);
    ASSERT_EQ(a.listenRounds, b.listenRounds) << "node " << v;
    ASSERT_EQ(a.transmitRounds, b.transmitRounds) << "node " << v;
    ASSERT_EQ(a.framesReceived, b.framesReceived) << "node " << v;
  }

  // The case reaches what it is for: tuned listeners hear frames off
  // channel 0, wide-band ones hear several channels, and frames drop.
  EXPECT_TRUE(activeResult.completed);
  EXPECT_GT(activeResult.totalCollisions, 0u);
  EXPECT_GT(activeResult.droppedTransmissions, 0u);
  EXPECT_EQ(active->trace().droppedEvents(), 0u);
  std::size_t tunedOffZero = 0;
  std::size_t wideOffZero = 0;
  for (const obs::FrEvent& e : active->trace().events()) {
    if (e.type != static_cast<std::uint8_t>(obs::FrType::kDelivery) ||
        e.channel == 0)
      continue;
    ++(e.node % 2 == 0 ? wideOffZero : tunedOffZero);
  }
  EXPECT_GT(tunedOffZero, 0u);
  EXPECT_GT(wideOffZero, 0u);

  // Recorded from the engine before its listeners moved to a listen
  // column; a change to release order, resolution or delivery moves it.
  EXPECT_EQ(traceDigest(active->trace()), 0x6483ac60ff4639e1ull);
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
