// Scenario engine: scripted network workloads.
//
// A scenario is a list of timed events — joins, departures, moves, group
// changes, broadcasts, multicasts, gather waves, compactions — executed
// against one SensorNetwork with continuous validation. The text format
// (one event per line) drives the `wsn_sim` command-line tool and the
// scenario regression tests:
//
//   # comments and blank lines are ignored
//   join 120.5 480.0            # deploy + move-in at (x, y)
//   leave 42                    # node-move-out
//   move 17 300 250             # relocate node 17
//   group 17 3                  # node 17 joins multicast group 3
//   ungroup 17 3
//   broadcast 0 icff            # source 0; schemes: dfo | cff | icff |
//                               #   flood | gossip | agossip | counter |
//                               #   distance | rlnc (DESIGN.md §16)
//   broadcast random dfo        # uniformly random source
//   arena 0                     # race every scheme from one source
//   arena random
//   rbroadcast 0 icff 8         # reliable broadcast (budget optional;
//                               #   slotted schemes only: cff | icff)
//   multicast 0 3 pruned        # source, group, pruned | flood
//   gather                      # convergecast wave (value = node id)
//   compact                     # slot compaction sweep
//   validate                    # explicit invariant check
//   crash 42                    # uncooperative death (structure stale)
//   crash 42 7                  # radio death at round 7 of later runs
//   faults drop 0.1             # i.i.d. transmission loss
//   faults burst 0.05 0.5 0.9   # Gilbert-Elliott (+ optional dropGood)
//   faults jam 500 500 120      # jam disk (+ optional from to rounds)
//   faults none                 # clear all fault regimes
//   repair                      # heartbeat + prune + re-attach pass
//   waypoint 5 25               # 5 random-waypoint ticks, 25 units/tick
//   churn 2.5                   # one tick of ~2.5 crash/join/leave events
//   churn 2.5 10                # ten such ticks (repaired per tick)
//
// While crashed nodes leave the structure stale, the implicit per-event
// validation is suspended (an explicit `validate` line still reports the
// violation); a `repair` event restores the invariants.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/sensor_network.hpp"

namespace dsn::obs {
class JsonWriter;
}

namespace dsn {

struct ScenarioEvent {
  enum class Kind {
    kJoin,
    kLeave,
    kMove,
    kJoinGroup,
    kLeaveGroup,
    kBroadcast,
    kArena,  ///< one source, every scheme in kAllBroadcastSchemes
    kReliableBroadcast,
    kMulticast,
    kGather,
    kCompact,
    kValidate,
    kCrash,
    kFaults,
    kRepair,
    kWaypoint,
    kChurn,
  };

  /// Which fault regime a kFaults event installs.
  enum class FaultKind { kNone, kDrop, kBurst, kJam };

  Kind kind{};
  NodeId node = kInvalidNode;  ///< kInvalidNode on broadcast = random
  Point2D position{};
  GroupId group = kNoGroup;
  BroadcastScheme scheme = BroadcastScheme::kImprovedCff;
  MulticastMode multicastMode = MulticastMode::kPrunedRelay;
  /// kCrash: 0 = immediate structural crash; > 0 = radio-level death at
  /// this round of every later communication event.
  Round round = 0;
  /// kReliableBroadcast: repair-round budget.
  int repairBudget = 8;
  /// kWaypoint / kChurn: mobility ticks to run.
  int steps = 1;
  /// kWaypoint: per-tick step distance; kChurn: expected events per tick.
  double magnitude = 0.0;
  // kFaults payload:
  FaultKind faultKind = FaultKind::kNone;
  double dropProbability = 0.0;
  BurstLossParams burst;
  JamZone jam;
  int sourceLine = 0;  ///< for error reporting
};

/// Parses the text format. Throws PreconditionError with the offending
/// line number on malformed input.
std::vector<ScenarioEvent> parseScenario(std::istream& in);
std::vector<ScenarioEvent> parseScenario(const std::string& text);

/// Inverse of parseScenario: renders one event as a single scenario
/// line (no trailing newline). Doubles print with %.17g so a
/// format/parse round trip is value-exact; optional tails (rbroadcast
/// budget, crash round, jam interval) are emitted only when they differ
/// from the parse defaults. The shrinker uses this to export minimized
/// fuzz programs as replayable `.wsn` files.
std::string formatScenarioEvent(const ScenarioEvent& event);

/// Renders a whole program, one event per line, each line terminated
/// with '\n'. parseScenario(formatScenario(events)) reproduces `events`
/// (up to sourceLine numbering).
std::string formatScenario(const std::vector<ScenarioEvent>& events);

/// Aggregate outcome of a scenario run.
struct ScenarioOutcome {
  /// One line per executed event (human-readable).
  std::vector<std::string> log;
  std::size_t eventsExecuted = 0;
  std::size_t broadcasts = 0;
  /// kArena events executed (each runs every scheme once).
  std::size_t arenas = 0;
  std::size_t reliableBroadcasts = 0;
  std::size_t multicasts = 0;
  std::size_t gathers = 0;
  std::size_t crashes = 0;
  std::size_t repairs = 0;
  double worstCoverage = 1.0;
  double worstYield = 1.0;
  /// False when any (implicit or explicit) validation failed; the first
  /// failure message is kept.
  bool valid = true;
  std::string firstViolation;
  /// Per-round event streams captured from every simulator run the
  /// scenario executed (broadcasts, multicasts, gathers), concatenated
  /// in execution order. Empty unless
  /// ScenarioOptions::protocol.traceCapacity > 0.
  std::vector<obs::FrEvent> traceEvents;
  /// Events lost to the per-run trace capacity caps.
  std::size_t traceDropped = 0;
};

/// Writes `outcome` as the JSON object value of a dsnet-run-v1 record's
/// "outcome" (wsn_sim and wsn_serve): its counts, worst coverage and
/// yield, validity, the first violation when invalid, and the trace
/// event and drop counts. The log and the events themselves are left
/// out.
void writeOutcomeJson(obs::JsonWriter& w, const ScenarioOutcome& outcome);

struct ScenarioOptions {
  /// Seed for `broadcast random` source draws.
  std::uint64_t seed = 0x5CEA;
  /// Radio options applied to every communication event.
  ProtocolOptions protocol;
  /// When set, overrides the scheme of every kBroadcast event (the
  /// `wsn_sim --protocol` plumbing). Reliable broadcasts keep their
  /// scripted slotted scheme, and arena events still race everyone.
  std::optional<BroadcastScheme> forceScheme;
};

/// True when running `event` can mutate the SensorNetwork itself —
/// joins, departures, moves, group changes, crashes, repairs, mobility
/// and churn ticks, slot compaction. Communication events (broadcast,
/// arena, rbroadcast, multicast, gather), validation, and fault-regime
/// changes only read the structure: faults accumulate into the run's
/// local ProtocolOptions, never into the network. The serve engine uses
/// this split to run read-only jobs concurrently over one shared warm
/// deployment while mutating jobs get a private build.
bool scenarioEventMutatesNetwork(const ScenarioEvent& event);

/// True when any event of `events` mutates the network.
bool scenarioMutatesNetwork(const std::vector<ScenarioEvent>& events);

/// Executes `events` against `net` in order, validating the invariants
/// after every event (in addition to explicit `validate` lines) unless
/// crashes have left the structure stale.
ScenarioOutcome runScenario(SensorNetwork& net,
                            const std::vector<ScenarioEvent>& events,
                            const ScenarioOptions& options = {});

}  // namespace dsn
