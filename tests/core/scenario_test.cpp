// Scenario engine: parser and executor.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace dsn {
namespace {

SensorNetwork makeNet(std::size_t n = 100, std::uint64_t seed = 5) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return SensorNetwork(cfg);
}

// ---- parser ----

TEST(ScenarioParserTest, ParsesEveryEventKind) {
  const auto events = parseScenario(
      "join 1.5 2.5\n"
      "leave 7\n"
      "move 7 10 20\n"
      "group 3 9\n"
      "ungroup 3 9\n"
      "broadcast 0 dfo\n"
      "broadcast random\n"
      "multicast 0 9 flood\n"
      "gather\n"
      "compact\n"
      "validate\n");
  ASSERT_EQ(events.size(), 11u);
  EXPECT_EQ(events[0].kind, ScenarioEvent::Kind::kJoin);
  EXPECT_DOUBLE_EQ(events[0].position.x, 1.5);
  EXPECT_EQ(events[1].kind, ScenarioEvent::Kind::kLeave);
  EXPECT_EQ(events[1].node, 7u);
  EXPECT_EQ(events[2].kind, ScenarioEvent::Kind::kMove);
  EXPECT_EQ(events[3].kind, ScenarioEvent::Kind::kJoinGroup);
  EXPECT_EQ(events[3].group, 9u);
  EXPECT_EQ(events[4].kind, ScenarioEvent::Kind::kLeaveGroup);
  EXPECT_EQ(events[5].scheme, BroadcastScheme::kDfo);
  EXPECT_EQ(events[6].node, kInvalidNode);  // random source
  EXPECT_EQ(events[6].scheme, BroadcastScheme::kImprovedCff);
  EXPECT_EQ(events[7].multicastMode, MulticastMode::kFullFlood);
  EXPECT_EQ(events[8].kind, ScenarioEvent::Kind::kGather);
  EXPECT_EQ(events[9].kind, ScenarioEvent::Kind::kCompact);
  EXPECT_EQ(events[10].kind, ScenarioEvent::Kind::kValidate);
}

TEST(ScenarioParserTest, CommentsAndBlanksIgnored) {
  const auto events = parseScenario(
      "# a comment\n"
      "\n"
      "gather  # trailing comment\n"
      "   \n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].sourceLine, 3);
}

TEST(ScenarioParserTest, ErrorsCarryLineNumbers) {
  try {
    parseScenario("gather\nbogus 1 2\n");
    FAIL() << "expected parse error";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ScenarioParserTest, MalformedArgumentsRejected) {
  EXPECT_THROW(parseScenario("join 1\n"), PreconditionError);
  EXPECT_THROW(parseScenario("join x y\n"), PreconditionError);
  EXPECT_THROW(parseScenario("leave -3\n"), PreconditionError);
  EXPECT_THROW(parseScenario("broadcast 0 warp\n"), PreconditionError);
  EXPECT_THROW(parseScenario("multicast 0 1 maybe\n"), PreconditionError);
  EXPECT_THROW(parseScenario("gather extra\n"), PreconditionError);
}

// ---- executor ----

TEST(ScenarioRunnerTest, DemoWorkloadRunsClean) {
  auto net = makeNet();
  const auto events = parseScenario(
      "broadcast random icff\n"
      "gather\n"
      "leave 3\n"
      "group 5 1\n"
      "multicast 0 1 pruned\n"
      "compact\n"
      "broadcast 0 dfo\n");
  const auto outcome = runScenario(net, events);
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  EXPECT_EQ(outcome.eventsExecuted, 7u);
  EXPECT_EQ(outcome.broadcasts, 2u);
  EXPECT_EQ(outcome.multicasts, 1u);
  EXPECT_EQ(outcome.gathers, 1u);
  EXPECT_DOUBLE_EQ(outcome.worstCoverage, 1.0);
  EXPECT_EQ(outcome.log.size(), 7u);
}

TEST(ScenarioRunnerTest, JoinAtPositionEntersNet) {
  auto net = makeNet();
  const std::size_t before = net.size();
  const Point2D p = net.position(0);
  std::ostringstream script;
  script << "join " << p.x + 5 << " " << p.y + 5 << "\n";
  const auto outcome =
      runScenario(net, parseScenario(script.str()));
  EXPECT_TRUE(outcome.valid);
  EXPECT_EQ(net.size(), before + 1);
  EXPECT_NE(outcome.log[0].find("in net"), std::string::npos);
}

TEST(ScenarioRunnerTest, FailureOptionsPropagate) {
  auto net = makeNet();
  ScenarioOptions opts;
  opts.protocol.dropProbability = 1.0;  // nothing ever goes on air
  const auto outcome =
      runScenario(net, parseScenario("broadcast 0 icff\n"), opts);
  EXPECT_LT(outcome.worstCoverage, 0.1);
  EXPECT_TRUE(outcome.valid);  // structure untouched by radio loss
}

TEST(ScenarioRunnerTest, RandomSourceIsSeedStable) {
  auto netA = makeNet();
  auto netB = makeNet();
  const auto events = parseScenario("broadcast random icff\n");
  ScenarioOptions opts;
  opts.seed = 77;
  const auto a = runScenario(netA, events, opts);
  const auto b = runScenario(netB, events, opts);
  EXPECT_EQ(a.log, b.log);
}

TEST(ScenarioRunnerTest, LeaveOfOutsiderThrows) {
  auto net = makeNet();
  EXPECT_THROW(runScenario(net, parseScenario("leave 9999\n")),
               PreconditionError);
}

TEST(ScenarioRunnerTest, LeaveOfCrashedNodeIsRefusedUnchanged) {
  auto net = makeNet(40);
  runScenario(net, parseScenario("crash 5\n"));
  ASSERT_TRUE(net.clusterNet().contains(5));
  ASSERT_FALSE(net.graph().isAlive(5));
  const std::size_t size = net.size();
  const std::size_t deployed = net.graph().size();
  const std::size_t edges = net.graph().edgeCount();
  const std::string report = net.validate().summary();

  try {
    runScenario(net, parseScenario("leave 5\n"));
    FAIL() << "the scenario left a crashed node";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "scenario: leave of node not deployed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(net.size(), size);
  EXPECT_EQ(net.graph().size(), deployed);
  EXPECT_EQ(net.graph().edgeCount(), edges);
  EXPECT_EQ(net.validate().summary(), report);
}

TEST(ScenarioRunnerTest, OffGridPointsAreRefusedUnchanged) {
  // 1e300 / range has no 32-bit unit-disk cell index: the network
  // refuses the point before it changes anything.
  auto net = makeNet(60);
  const std::size_t size = net.size();
  const std::size_t deployed = net.graph().size();
  const std::size_t edges = net.graph().edgeCount();
  const NodeId v = net.clusterNet().root();
  const Point2D at = net.position(v);
  const std::vector<NodeId> neighbors = net.graph().neighbors(v);

  EXPECT_THROW(net.addSensor({1e300, 0.0}), PreconditionError);
  EXPECT_THROW(net.moveSensor(v, {1e300, 0.0}), PreconditionError);
  EXPECT_THROW(runScenario(net, parseScenario("join 1e300 0\n")),
               PreconditionError);

  EXPECT_EQ(net.size(), size);
  EXPECT_EQ(net.graph().size(), deployed);
  EXPECT_EQ(net.graph().edgeCount(), edges);
  EXPECT_EQ(net.clusterNet().root(), v);
  EXPECT_EQ(net.position(v).x, at.x);
  EXPECT_EQ(net.position(v).y, at.y);
  EXPECT_EQ(net.graph().neighbors(v), neighbors);
  EXPECT_TRUE(net.validate().ok());
}

// ---- robustness events ----

TEST(ScenarioParserTest, ParsesRobustnessEvents) {
  const auto events = parseScenario(
      "crash 7\n"
      "crash 8 12\n"
      "faults drop 0.25\n"
      "faults burst 0.05 0.5 0.9 0.01\n"
      "faults jam 500 400 120 3 9\n"
      "faults none\n"
      "repair\n"
      "rbroadcast 0 icff 6\n"
      "rbroadcast random cff\n");
  ASSERT_EQ(events.size(), 9u);
  EXPECT_EQ(events[0].kind, ScenarioEvent::Kind::kCrash);
  EXPECT_EQ(events[0].node, 7u);
  EXPECT_EQ(events[0].round, 0);  // immediate structural crash
  EXPECT_EQ(events[1].round, 12);
  EXPECT_EQ(events[2].faultKind, ScenarioEvent::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(events[2].dropProbability, 0.25);
  EXPECT_EQ(events[3].faultKind, ScenarioEvent::FaultKind::kBurst);
  EXPECT_DOUBLE_EQ(events[3].burst.pEnterBurst, 0.05);
  EXPECT_DOUBLE_EQ(events[3].burst.pExitBurst, 0.5);
  EXPECT_DOUBLE_EQ(events[3].burst.dropBurst, 0.9);
  EXPECT_DOUBLE_EQ(events[3].burst.dropGood, 0.01);
  EXPECT_EQ(events[4].faultKind, ScenarioEvent::FaultKind::kJam);
  EXPECT_DOUBLE_EQ(events[4].jam.center.x, 500.0);
  EXPECT_DOUBLE_EQ(events[4].jam.radius, 120.0);
  EXPECT_EQ(events[4].jam.fromRound, 3);
  EXPECT_EQ(events[4].jam.toRound, 9);
  EXPECT_EQ(events[5].faultKind, ScenarioEvent::FaultKind::kNone);
  EXPECT_EQ(events[6].kind, ScenarioEvent::Kind::kRepair);
  EXPECT_EQ(events[7].kind, ScenarioEvent::Kind::kReliableBroadcast);
  EXPECT_EQ(events[7].repairBudget, 6);
  EXPECT_EQ(events[8].node, kInvalidNode);
  EXPECT_EQ(events[8].repairBudget, 8);  // default budget
}

TEST(ScenarioParserTest, RobustnessEventErrorsRejected) {
  EXPECT_THROW(parseScenario("crash\n"), PreconditionError);
  EXPECT_THROW(parseScenario("crash x\n"), PreconditionError);
  EXPECT_THROW(parseScenario("crash 3 0\n"), PreconditionError);
  EXPECT_THROW(parseScenario("crash 3 -2\n"), PreconditionError);
  EXPECT_THROW(parseScenario("crash 3 1.5\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults fire\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults drop\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults drop 1.5\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults drop -0.1\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults burst 0.1 0.5\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults burst 0 0.5 0.9\n"),
               PreconditionError);
  EXPECT_THROW(parseScenario("faults burst 0.1 0 0.9\n"),
               PreconditionError);
  EXPECT_THROW(parseScenario("faults jam 10 10\n"), PreconditionError);
  EXPECT_THROW(parseScenario("faults jam 10 10 0\n"), PreconditionError);
  EXPECT_THROW(parseScenario("rbroadcast 0 dfo\n"), PreconditionError);
  EXPECT_THROW(parseScenario("rbroadcast 0 icff -1\n"),
               PreconditionError);
  EXPECT_THROW(parseScenario("repair extra\n"), PreconditionError);
}

TEST(ScenarioRunnerTest, CrashRepairRestoresValidity) {
  auto net = makeNet();
  const auto outcome = runScenario(net, parseScenario(
      "crash 11\n"
      "crash 23\n"
      "repair\n"
      "validate\n"
      "broadcast 0 icff\n"));
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  EXPECT_EQ(outcome.crashes, 2u);
  EXPECT_EQ(outcome.repairs, 1u);
  EXPECT_FALSE(net.hasStaleStructure());
}

TEST(ScenarioRunnerTest, ImplicitValidationSuspendedWhileStale) {
  auto net = makeNet();
  // Without the suspension the `group` event after the crash would trip
  // the per-event invariant check and poison the outcome.
  const auto outcome = runScenario(net, parseScenario(
      "crash 11\n"
      "group 5 1\n"
      "repair\n"));
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
}

TEST(ScenarioRunnerTest, ExplicitValidateStillReportsStaleness) {
  auto net = makeNet();
  const auto outcome = runScenario(net, parseScenario(
      "crash 11\n"
      "validate\n"
      "repair\n"));
  EXPECT_FALSE(outcome.valid);
  EXPECT_FALSE(outcome.firstViolation.empty());
}

TEST(ScenarioRunnerTest, FaultsEventsShapeLaterRuns) {
  auto net = makeNet();
  const auto lossy = runScenario(net, parseScenario(
      "faults drop 1.0\n"
      "broadcast 0 icff\n"));
  EXPECT_LT(lossy.worstCoverage, 0.1);

  auto net2 = makeNet();
  const auto cleared = runScenario(net2, parseScenario(
      "faults drop 1.0\n"
      "faults none\n"
      "broadcast 0 icff\n"));
  EXPECT_DOUBLE_EQ(cleared.worstCoverage, 1.0);
}

TEST(ScenarioRunnerTest, ReliableBroadcastRepairsDropLoss) {
  auto net = makeNet();
  const auto outcome = runScenario(net, parseScenario(
      "faults drop 0.2\n"
      "rbroadcast 0 icff 30\n"));
  EXPECT_EQ(outcome.reliableBroadcasts, 1u);
  EXPECT_DOUBLE_EQ(outcome.worstCoverage, 1.0);
}

TEST(ScenarioRunnerTest, CrashOfUndeployedNodeThrows) {
  auto net = makeNet();
  EXPECT_THROW(runScenario(net, parseScenario("crash 9999\n")),
               PreconditionError);
}

// ---- mobility events ----

TEST(ScenarioParserTest, ParsesMobilityEvents) {
  const auto events = parseScenario(
      "waypoint 5 25\n"
      "waypoint 1 12.5\n"
      "churn 2.5\n"
      "churn 0.75 10\n"
      "churn 0\n");
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, ScenarioEvent::Kind::kWaypoint);
  EXPECT_EQ(events[0].steps, 5);
  EXPECT_DOUBLE_EQ(events[0].magnitude, 25.0);
  EXPECT_EQ(events[1].steps, 1);
  EXPECT_DOUBLE_EQ(events[1].magnitude, 12.5);
  EXPECT_EQ(events[2].kind, ScenarioEvent::Kind::kChurn);
  EXPECT_EQ(events[2].steps, 1);  // default tick count
  EXPECT_DOUBLE_EQ(events[2].magnitude, 2.5);
  EXPECT_EQ(events[3].steps, 10);
  EXPECT_DOUBLE_EQ(events[3].magnitude, 0.75);
  EXPECT_DOUBLE_EQ(events[4].magnitude, 0.0);
}

TEST(ScenarioParserTest, MobilityEventErrorsRejected) {
  EXPECT_THROW(parseScenario("waypoint\n"), PreconditionError);
  EXPECT_THROW(parseScenario("waypoint 5\n"), PreconditionError);
  EXPECT_THROW(parseScenario("waypoint 0 25\n"), PreconditionError);
  EXPECT_THROW(parseScenario("waypoint 1.5 25\n"), PreconditionError);
  EXPECT_THROW(parseScenario("waypoint 5 0\n"), PreconditionError);
  EXPECT_THROW(parseScenario("waypoint 5 -3\n"), PreconditionError);
  EXPECT_THROW(parseScenario("waypoint 5 25 9\n"), PreconditionError);
  EXPECT_THROW(parseScenario("churn\n"), PreconditionError);
  EXPECT_THROW(parseScenario("churn -1\n"), PreconditionError);
  EXPECT_THROW(parseScenario("churn 2 0\n"), PreconditionError);
  EXPECT_THROW(parseScenario("churn 2 2.5\n"), PreconditionError);
  EXPECT_THROW(parseScenario("churn 2 3 4\n"), PreconditionError);
}

TEST(ScenarioParserTest, NonFiniteAndOutOfRangeNumbersRejected) {
  // Each line once converted a number it should have refused: to the
  // kNoGroup or kInvalidNode sentinel, by truncating a fraction, by
  // casting a value its integer type cannot hold, or by letting a NaN or
  // an infinity through. Each must fail at parse time, naming its line.
  const char* const kBad[] = {
      "group 3 -1",
      "group 3 2.7",
      "group 3 4294967295",
      "broadcast 4294967295 icff",
      "join nan nan",
      "move 3 inf 0",
      "leave 1e300",
      "crash 3 1e300",
      "rbroadcast 0 icff 3000000000",
      "waypoint 3000000000 5",
      "faults jam 10 10 50 1e300",
      "faults jam 10 10 50 2.5",
      "faults jam 10 10 50 2 1e300",
      "faults jam 10 10 50 2 3.5",
      "faults burst nan 0.5 0.5",
      "faults drop nan",
      "churn nan",
      "churn inf 1",
      "churn 1e20",
      "churn 2 3000000000",
  };
  for (const char* line : kBad) {
    try {
      parseScenario(std::string("validate\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("scenario line 2: "),
                std::string::npos)
          << e.what();
    }
  }
  // The largest value of each range still parses.
  const auto events = parseScenario(
      "group 3 4294967294\n"
      "broadcast 4294967294 icff\n"
      "rbroadcast 0 icff 2147483647\n"
      "waypoint 2147483647 5\n"
      "churn 2 2147483647\n"
      "faults jam 10 10 50 2 3\n");
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].group, kNoGroup - 1);
  EXPECT_EQ(events[1].node, kInvalidNode - 1);
  EXPECT_EQ(events[2].repairBudget, 2147483647);
  EXPECT_EQ(events[3].steps, 2147483647);
  EXPECT_EQ(events[4].steps, 2147483647);
  EXPECT_EQ(events[5].jam.fromRound, 2);
  EXPECT_EQ(events[5].jam.toRound, 3);
}

TEST(ScenarioParserTest, MobilityEventsRoundTripThroughFormat) {
  const std::string script =
      "waypoint 5 25\n"
      "waypoint 3 0.10000000000000001\n"
      "churn 2.5\n"
      "churn 0.75 10\n";
  const auto events = parseScenario(script);
  EXPECT_EQ(formatScenario(events), script);
  // Value-exact through a second parse.
  const auto again = parseScenario(formatScenario(events));
  ASSERT_EQ(again.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].kind, events[i].kind);
    EXPECT_EQ(again[i].steps, events[i].steps);
    EXPECT_DOUBLE_EQ(again[i].magnitude, events[i].magnitude);
  }
}

TEST(ScenarioRunnerTest, WaypointMovesNetNodesAndStaysValid) {
  auto net = makeNet();
  std::vector<Point2D> before;
  for (NodeId v = 0; v < net.size(); ++v) before.push_back(net.position(v));
  const auto outcome =
      runScenario(net, parseScenario("waypoint 3 20\nvalidate\n"));
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  std::size_t moved = 0;
  for (NodeId v = 0; v < before.size(); ++v) {
    if (net.graph().isAlive(v) && !(net.position(v) == before[v])) ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_NE(outcome.log[0].find("waypoint 3 ticks"), std::string::npos);
}

TEST(ScenarioRunnerTest, WaypointIsSeedStable) {
  auto netA = makeNet();
  auto netB = makeNet();
  const auto events = parseScenario("waypoint 4 15\nbroadcast 0 icff\n");
  ScenarioOptions opts;
  opts.seed = 99;
  const auto a = runScenario(netA, events, opts);
  const auto b = runScenario(netB, events, opts);
  EXPECT_EQ(a.log, b.log);
  for (NodeId v = 0; v < netA.size(); ++v)
    EXPECT_TRUE(netA.position(v) == netB.position(v)) << "node " << v;
}

TEST(ScenarioRunnerTest, ChurnTicksEndCleanAndRepaired) {
  auto net = makeNet();
  const auto outcome =
      runScenario(net,
                  parseScenario("churn 3 8\nvalidate\nbroadcast random icff\n"));
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  EXPECT_FALSE(net.hasStaleStructure());
  EXPECT_NE(outcome.log[0].find("churn 8 ticks"), std::string::npos);
}

TEST(ScenarioRunnerTest, ChurnSkipsVictimsThatAlreadyCrashed) {
  // On this network a churn tick draws a node that crashed earlier in
  // the same tick: at 3 events per tick the draw would crash it again,
  // at 4 it would make it leave. Both draws must be skipped.
  for (const char* script : {"churn 3 8\n", "churn 4 4\n"}) {
    SCOPED_TRACE(script);
    auto net = makeNet(40, 5);
    const auto outcome = runScenario(
        net, parseScenario(std::string(script) + "validate\n"
                                                 "broadcast random icff\n"));
    EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
    EXPECT_FALSE(net.hasStaleStructure());
    EXPECT_EQ(outcome.broadcasts, 1u);
  }
}

// On these networks a churn tick makes the root leave while a crashed
// member of its tree is still unpruned. The new root must be seeded from
// a live member; the dead one stays orphaned until recovery prunes it.
void expectChurnEndsValid(std::uint64_t seed, const std::string& churn) {
  auto net = makeNet(40, seed);
  const auto outcome = runScenario(
      net, parseScenario(churn + "validate\nbroadcast random icff\n"));
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  EXPECT_FALSE(net.hasStaleStructure());
  EXPECT_EQ(outcome.broadcasts, 1u);
}

TEST(ScenarioRunnerTest, ChurnRootLeaveOverUnprunedCrashSeed15) {
  expectChurnEndsValid(15, "churn 4 4\n");
}

TEST(ScenarioRunnerTest, ChurnRootLeaveOverUnprunedCrashSeed247) {
  expectChurnEndsValid(247, "churn 6 6\n");
}

TEST(ScenarioRunnerTest, ZeroRateChurnIsANoOp) {
  auto net = makeNet();
  const std::size_t before = net.size();
  const auto outcome = runScenario(net, parseScenario("churn 0 5\n"));
  EXPECT_TRUE(outcome.valid);
  EXPECT_EQ(net.size(), before);
  EXPECT_EQ(outcome.crashes, 0u);
}

// ---- arena rivals ----

TEST(ScenarioParserTest, ParsesEveryRivalSchemeWord) {
  const auto events = parseScenario(
      "broadcast 0 flood\n"
      "broadcast 0 gossip\n"
      "broadcast 0 agossip\n"
      "broadcast 0 counter\n"
      "broadcast 0 distance\n"
      "broadcast 0 rlnc\n");
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].scheme, BroadcastScheme::kFlooding);
  EXPECT_EQ(events[1].scheme, BroadcastScheme::kGossip);
  EXPECT_EQ(events[2].scheme, BroadcastScheme::kGossipAdaptive);
  EXPECT_EQ(events[3].scheme, BroadcastScheme::kCounter);
  EXPECT_EQ(events[4].scheme, BroadcastScheme::kDistance);
  EXPECT_EQ(events[5].scheme, BroadcastScheme::kRlnc);
}

TEST(ScenarioParserTest, RivalAndArenaEventsRoundTripThroughFormat) {
  const std::string script =
      "broadcast random gossip\n"
      "broadcast 4 rlnc\n"
      "arena 3\n"
      "arena random\n";
  const auto events = parseScenario(script);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].kind, ScenarioEvent::Kind::kArena);
  EXPECT_EQ(events[2].node, 3u);
  EXPECT_EQ(events[3].kind, ScenarioEvent::Kind::kArena);
  EXPECT_EQ(events[3].node, kInvalidNode);
  const auto reparsed = parseScenario(formatScenario(events));
  ASSERT_EQ(reparsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(reparsed[i].kind, events[i].kind) << "event " << i;
    EXPECT_EQ(reparsed[i].node, events[i].node) << "event " << i;
    EXPECT_EQ(reparsed[i].scheme, events[i].scheme) << "event " << i;
  }
}

TEST(ScenarioParserTest, RbroadcastRejectsNonSlottedSchemes) {
  // The NACK repair waves drive the depth-indexed slot schedule; only
  // CFF/iCFF have one (latent-assumption audit, DESIGN.md §16).
  EXPECT_THROW(parseScenario("rbroadcast 0 dfo\n"), PreconditionError);
  EXPECT_THROW(parseScenario("rbroadcast 0 flood\n"), PreconditionError);
  EXPECT_THROW(parseScenario("rbroadcast 0 gossip\n"), PreconditionError);
  EXPECT_THROW(parseScenario("rbroadcast 0 rlnc\n"), PreconditionError);
  EXPECT_NO_THROW(parseScenario("rbroadcast 0 cff\nrbroadcast 0 icff\n"));
}

TEST(ScenarioRunnerTest, ArenaRacesEveryScheme) {
  auto net = makeNet();
  const auto outcome = runScenario(net, parseScenario("arena 0\n"));
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  EXPECT_EQ(outcome.arenas, 1u);
  EXPECT_EQ(outcome.broadcasts, 0u);  // arena legs are not broadcasts
  ASSERT_EQ(outcome.log.size(), 1u);
  for (const BroadcastScheme scheme : kAllBroadcastSchemes) {
    EXPECT_NE(outcome.log[0].find(toString(scheme)), std::string::npos)
        << toString(scheme);
  }
}

TEST(ScenarioRunnerTest, ForceSchemeOverridesScriptedBroadcasts) {
  auto net = makeNet();
  ScenarioOptions opts;
  opts.forceScheme = BroadcastScheme::kGossip;
  const auto outcome =
      runScenario(net, parseScenario("broadcast 0 icff\n"), opts);
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  ASSERT_EQ(outcome.log.size(), 1u);
  EXPECT_NE(outcome.log[0].find("GOSSIP"), std::string::npos)
      << outcome.log[0];
}

}  // namespace
}  // namespace dsn
