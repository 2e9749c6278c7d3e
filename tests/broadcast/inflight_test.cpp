// InFlightBroadcast: resumable CFF/iCFF waves over a reconfiguring
// network (DESIGN.md §15).
//
// The two load-bearing contracts:
//   1. Segmenting alone changes nothing — a wave advanced in arbitrary
//      chunks (with no topology mutation between them) is bit-identical
//      to the one-shot runner, per scheme and per scheduling mode.
//   2. Mid-wave reconfiguration is scheduler-invariant — the same
//      interleaved move/crash/join program produces the same finish
//      report and per-node delivery set under the active-set engine
//      and the full-scan oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "broadcast/inflight.hpp"
#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"
#include "radio/wake_calendar.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

constexpr std::uint64_t kPayload = 0xFEED;

NetworkConfig paperNetwork(std::size_t n, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return cfg;
}

ProtocolOptions withScheduling(SimScheduling scheduling) {
  ProtocolOptions opts;
  opts.scheduling = scheduling;
  return opts;
}

void expectSameReport(const InFlightReport& a, const InFlightReport& b) {
  EXPECT_EQ(a.sim.rounds, b.sim.rounds);
  EXPECT_EQ(a.sim.totalTransmissions, b.sim.totalTransmissions);
  EXPECT_EQ(a.sim.totalDeliveries, b.sim.totalDeliveries);
  EXPECT_EQ(a.sim.totalCollisions, b.sim.totalCollisions);
  EXPECT_EQ(a.scheduleLength, b.scheduleLength);
  EXPECT_EQ(a.intended, b.intended);
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_EQ(a.displaced, b.displaced);
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.deliveredSettled, b.deliveredSettled);
  EXPECT_EQ(a.lastDeliveryRound, b.lastDeliveryRound);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(InFlightBroadcastTest, SegmentedRunMatchesOneShotRunner) {
  const SensorNetwork net(paperNetwork(140, 0x1F117));
  const NodeId source = net.clusterNet().root();
  const ProtocolOptions opts;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    SCOPED_TRACE(toString(scheme));
    const BroadcastRun ref = net.broadcast(scheme, source, kPayload, opts);

    InFlightBroadcast wave(net.clusterNet(), scheme, source, kPayload, opts);
    EXPECT_FALSE(wave.finished());
    // Ragged segment sizes, deliberately not divisors of anything.
    for (Round stop = 3; !wave.finished(); stop += 7) wave.advanceTo(stop);
    const InFlightReport rep = wave.finish();

    EXPECT_EQ(rep.sim.rounds, ref.sim.rounds);
    EXPECT_EQ(rep.sim.totalTransmissions, ref.sim.totalTransmissions);
    EXPECT_EQ(rep.sim.totalDeliveries, ref.sim.totalDeliveries);
    EXPECT_EQ(rep.sim.totalCollisions, ref.sim.totalCollisions);
    EXPECT_EQ(rep.scheduleLength, ref.scheduleLength);
    EXPECT_EQ(rep.intended, ref.intended);
    EXPECT_EQ(rep.delivered, ref.delivered);
    EXPECT_EQ(rep.lastDeliveryRound, ref.lastDeliveryRound);
    // No mutation => nobody departed or displaced.
    EXPECT_EQ(rep.departed, 0u);
    EXPECT_EQ(rep.displaced, 0u);
    EXPECT_EQ(rep.settled, rep.intended);
    EXPECT_EQ(rep.deliveredSettled, rep.delivered);
    EXPECT_DOUBLE_EQ(rep.effectiveCoverage(), 1.0);
  }
}

TEST(InFlightBroadcastTest, TokenTourRejected) {
  const SensorNetwork net(paperNetwork(60, 0x1F118));
  EXPECT_THROW(InFlightBroadcast(net.clusterNet(), BroadcastScheme::kDfo,
                                 net.clusterNet().root(), kPayload, {}),
               PreconditionError);
}

TEST(InFlightBroadcastTest, CrashMidWaveCountsAsDeparted) {
  SensorNetwork net(paperNetwork(120, 0x1F119));
  const NodeId source = net.clusterNet().root();
  // A node far from the source so it is not the source itself.
  const NodeId victim = source == 5 ? 6 : 5;

  InFlightBroadcast wave(net.clusterNet(), BroadcastScheme::kImprovedCff,
                         source, kPayload, {});
  wave.advanceTo(2);
  net.crashSensor(victim);
  net.repairAfterFailures();
  wave.noteDisplaced(victim);
  wave.onTopologyChanged();
  wave.runToCompletion();

  const InFlightReport rep = wave.finish();
  EXPECT_EQ(rep.departed, 1u);  // dead beats displaced in the accounting
  EXPECT_EQ(rep.intended, rep.departed + rep.displaced + rep.settled);
}

TEST(InFlightBroadcastTest, MoveMidWaveCountsAsDisplaced) {
  SensorNetwork net(paperNetwork(120, 0x1F11A));
  const NodeId source = net.clusterNet().root();
  const NodeId mover = source == 7 ? 8 : 7;

  InFlightBroadcast wave(net.clusterNet(), BroadcastScheme::kCff, source,
                         kPayload, {});
  wave.advanceTo(4);
  const Point2D p = net.position(mover);
  net.moveSensor(mover, {p.x + 30.0, p.y + 30.0});
  wave.noteDisplaced(mover);
  wave.onTopologyChanged();
  wave.runToCompletion();

  const InFlightReport rep = wave.finish();
  EXPECT_TRUE(wave.wasDisplaced(mover));
  EXPECT_EQ(rep.displaced, 1u);
  EXPECT_EQ(rep.intended, rep.departed + rep.displaced + rep.settled);
  // The settled class never counts the displaced node's delivery.
  EXPECT_LE(rep.deliveredSettled, rep.settled);
}

// The interleaved programs both schedulers must agree on. Each builds
// its own network (the program mutates it), runs the wave under the
// given scheduling mode, and returns (report, per-node delivery flags).
struct ProgramOutcome {
  InFlightReport report;
  std::vector<std::uint8_t> deliveredFlags;
};

ProgramOutcome finishProgram(const InFlightBroadcast& wave) {
  ProgramOutcome out;
  out.report = wave.finish();
  out.deliveredFlags.reserve(wave.intended().size());
  for (NodeId v : wave.intended())
    out.deliveredFlags.push_back(wave.deliveredTo(v) ? 1 : 0);
  return out;
}

ProgramOutcome runInterleavedProgram(BroadcastScheme scheme,
                                     SimScheduling scheduling) {
  SensorNetwork net(paperNetwork(140, 0x1F1B0));
  const NodeId source = net.clusterNet().root();
  InFlightBroadcast wave(net.clusterNet(), scheme, source, 0xAB,
                         withScheduling(scheduling));

  const auto resync = [&](std::initializer_list<NodeId> disturbed) {
    for (NodeId v : disturbed) wave.noteDisplaced(v);
    wave.onTopologyChanged();
  };

  // Segment 1: a drift plus a crash under the wave.
  wave.advanceTo(3);
  const NodeId mover = source == 11 ? 12 : 11;
  const NodeId victim = source == 23 ? 24 : 23;
  const Point2D mp = net.position(mover);
  net.moveSensor(mover, {mp.x + 40.0, mp.y - 25.0});
  net.crashSensor(victim);
  net.repairAfterFailures();
  resync({mover, victim});

  // Segment 2: membership churn — a join and a voluntary departure.
  wave.advanceTo(9);
  net.addSensor({net.position(source).x + 20.0, net.position(source).y});
  const NodeId leaver = source == 37 ? 38 : 37;
  if (net.clusterNet().contains(leaver)) {
    net.removeSensor(leaver);
    resync({leaver});
  } else {
    resync({});
  }

  // Segment 3: another drift, then run out.
  wave.advanceTo(15);
  const NodeId drifter = source == 53 ? 54 : 53;
  if (net.graph().isAlive(drifter)) {
    const Point2D dp = net.position(drifter);
    net.moveSensor(drifter, {dp.x - 35.0, dp.y + 15.0});
    resync({drifter});
  }
  wave.runToCompletion();
  return finishProgram(wave);
}

// Three segments; between them a seeded drift of a few random nodes.
ProgramOutcome runInterleavedMoves(BroadcastScheme scheme,
                                   SimScheduling scheduling,
                                   std::uint64_t seed) {
  SensorNetwork net(paperNetwork(130, seed));
  const NodeId source = net.clusterNet().root();
  InFlightBroadcast wave(net.clusterNet(), scheme, source, 0x5E6,
                         withScheduling(scheduling));

  Rng rng(seed ^ 0xD1FF);
  for (int segment = 0; segment < 3; ++segment) {
    wave.advanceTo(wave.cursor() + 4);
    if (wave.finished()) break;
    for (int k = 0; k < 4; ++k) {
      const NodeId v = net.randomNode(rng);
      if (v == source) continue;
      const Point2D p = net.position(v);
      net.moveSensor(v, {p.x + rng.uniformReal(-60.0, 60.0),
                         p.y + rng.uniformReal(-60.0, 60.0)});
      wave.noteDisplaced(v);
    }
    wave.onTopologyChanged();
  }
  wave.runToCompletion();
  return finishProgram(wave);
}

// A 5,000-node line rooted at one end: the wave's schedule runs to
// 5,000 rounds, one depth per round. At both resyncs below, wakes past
// round resync + WakeCalendar::kMaxHorizon re-queue beyond the horizon,
// and the run then finishes without another resync, so those wakes must
// come back from the calendar's overflow heap.
ProgramOutcome runLongLineProgram(BroadcastScheme scheme,
                                  SimScheduling scheduling) {
  NetworkConfig cfg = paperNetwork(5000, 0x1F1C0);
  cfg.deployment = DeploymentKind::kLine;
  SensorNetwork net(cfg);
  const NodeId source = net.clusterNet().root();
  InFlightBroadcast wave(net.clusterNet(), scheme, source, 0x11E,
                         withScheduling(scheduling));
  EXPECT_GT(wave.scheduleLength(),
            static_cast<Round>(WakeCalendar::kMaxHorizon));

  // Segment 1, then the far leaf crashes and a mid-line node drifts.
  wave.advanceTo(100);
  const NodeId victim = source == 4999 ? 0 : 4999;
  const NodeId mover = source == 3000 ? 3001 : 3000;
  net.crashSensor(victim);
  net.repairAfterFailures();
  const Point2D p = net.position(mover);
  net.moveSensor(mover, {p.x, p.y + 10.0});
  wave.noteDisplaced(victim);
  wave.noteDisplaced(mover);
  wave.onTopologyChanged();

  // Ragged pauses, then a second crash and resync.
  wave.advanceTo(213);
  wave.advanceTo(300);
  const NodeId late = source == 4997 ? 1 : 4997;
  net.crashSensor(late);
  net.repairAfterFailures();
  wave.noteDisplaced(late);
  wave.onTopologyChanged();
  for (Round stop = 1799; !wave.finished(); stop += 1499) wave.advanceTo(stop);
  return finishProgram(wave);
}

void expectSameOutcome(const ProgramOutcome& a, const ProgramOutcome& b) {
  expectSameReport(a.report, b.report);
  EXPECT_EQ(a.deliveredFlags, b.deliveredFlags);
}

TEST(InFlightBroadcastTest, InterleavedChurnBitIdenticalAcrossSchedulers) {
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    SCOPED_TRACE(toString(scheme));
    const ProgramOutcome ref =
        runInterleavedProgram(scheme, SimScheduling::kFullScan);
    EXPECT_EQ(ref.report.intended,
              ref.report.departed + ref.report.displaced + ref.report.settled);
    expectSameOutcome(
        runInterleavedProgram(scheme, SimScheduling::kActiveSet), ref);
  }
}

TEST(InFlightBroadcastTest, InterleavedMovesBitIdenticalAcrossSchedulers) {
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    for (const std::uint64_t seed : {0xD1FF10ull, 0xD1FF11ull}) {
      SCOPED_TRACE(std::string(toString(scheme)) + " seed=" +
                   std::to_string(seed));
      expectSameOutcome(
          runInterleavedMoves(scheme, SimScheduling::kActiveSet, seed),
          runInterleavedMoves(scheme, SimScheduling::kFullScan, seed));
    }
  }
}

TEST(InFlightBroadcastTest, LongLineResyncBeyondHorizonAcrossSchedulers) {
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    SCOPED_TRACE(toString(scheme));
    const ProgramOutcome ref =
        runLongLineProgram(scheme, SimScheduling::kFullScan);
    EXPECT_EQ(ref.report.departed, 2u);
    EXPECT_GT(ref.report.lastDeliveryRound,
              static_cast<Round>(WakeCalendar::kMaxHorizon));
    expectSameOutcome(runLongLineProgram(scheme, SimScheduling::kActiveSet),
                      ref);
  }
}

}  // namespace
}  // namespace dsn
