#include "core/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "broadcast/convergecast.hpp"
#include "core/mobility.hpp"
#include "obs/flight.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

[[noreturn]] void parseFail(int line, const std::string& what) {
  throw PreconditionError("scenario line " + std::to_string(line) + ": " +
                          what);
}

BroadcastScheme parseScheme(int line, const std::string& word) {
  if (word.empty()) return BroadcastScheme::kImprovedCff;
  BroadcastScheme s{};
  if (parseBroadcastScheme(word, s)) return s;
  parseFail(line, "unknown scheme '" + word +
                      "' (dfo | cff | icff | flood | gossip | agossip | "
                      "counter | distance | rlnc)");
}

MulticastMode parseMode(int line, const std::string& word) {
  if (word.empty() || word == "pruned") return MulticastMode::kPrunedRelay;
  if (word == "flood") return MulticastMode::kFullFlood;
  parseFail(line, "unknown multicast mode '" + word + "'");
}

double parseNumber(int line, const std::string& word, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(word, &used);
    if (used != word.size()) throw std::invalid_argument(word);
    return v;
  } catch (const std::exception&) {
    parseFail(line, std::string("expected ") + what + ", got '" + word +
                        "'");
  }
}

NodeId parseNode(int line, const std::string& word) {
  const double v = parseNumber(line, word, "a node id");
  if (v < 0 || v != static_cast<double>(static_cast<NodeId>(v)))
    parseFail(line, "invalid node id '" + word + "'");
  return static_cast<NodeId>(v);
}

double parseProbability(int line, const std::string& word,
                        const char* what) {
  const double p = parseNumber(line, word, what);
  if (p < 0.0 || p > 1.0)
    parseFail(line, std::string(what) + " must be in [0,1], got '" + word +
                        "'");
  return p;
}

}  // namespace

std::vector<ScenarioEvent> parseScenario(std::istream& in) {
  std::vector<ScenarioEvent> events;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);

    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op)) continue;  // blank line

    ScenarioEvent e;
    e.sourceLine = lineNo;
    std::string a, b, c;

    if (op == "join") {
      e.kind = ScenarioEvent::Kind::kJoin;
      if (!(ls >> a >> b)) parseFail(lineNo, "join needs x y");
      e.position = {parseNumber(lineNo, a, "x"),
                    parseNumber(lineNo, b, "y")};
    } else if (op == "leave") {
      e.kind = ScenarioEvent::Kind::kLeave;
      if (!(ls >> a)) parseFail(lineNo, "leave needs a node id");
      e.node = parseNode(lineNo, a);
    } else if (op == "move") {
      e.kind = ScenarioEvent::Kind::kMove;
      if (!(ls >> a >> b >> c)) parseFail(lineNo, "move needs id x y");
      e.node = parseNode(lineNo, a);
      e.position = {parseNumber(lineNo, b, "x"),
                    parseNumber(lineNo, c, "y")};
    } else if (op == "group" || op == "ungroup") {
      e.kind = op == "group" ? ScenarioEvent::Kind::kJoinGroup
                             : ScenarioEvent::Kind::kLeaveGroup;
      if (!(ls >> a >> b)) parseFail(lineNo, op + " needs id group");
      e.node = parseNode(lineNo, a);
      e.group = static_cast<GroupId>(
          parseNumber(lineNo, b, "a group id"));
    } else if (op == "broadcast") {
      e.kind = ScenarioEvent::Kind::kBroadcast;
      if (!(ls >> a)) parseFail(lineNo, "broadcast needs a source");
      e.node = a == "random" ? kInvalidNode : parseNode(lineNo, a);
      ls >> b;
      e.scheme = parseScheme(lineNo, b);
    } else if (op == "arena") {
      e.kind = ScenarioEvent::Kind::kArena;
      if (!(ls >> a)) parseFail(lineNo, "arena needs a source");
      e.node = a == "random" ? kInvalidNode : parseNode(lineNo, a);
    } else if (op == "multicast") {
      e.kind = ScenarioEvent::Kind::kMulticast;
      if (!(ls >> a >> b)) parseFail(lineNo, "multicast needs source group");
      e.node = parseNode(lineNo, a);
      e.group = static_cast<GroupId>(
          parseNumber(lineNo, b, "a group id"));
      ls >> c;
      e.multicastMode = parseMode(lineNo, c);
    } else if (op == "rbroadcast") {
      e.kind = ScenarioEvent::Kind::kReliableBroadcast;
      if (!(ls >> a)) parseFail(lineNo, "rbroadcast needs a source");
      e.node = a == "random" ? kInvalidNode : parseNode(lineNo, a);
      ls >> b;
      e.scheme = parseScheme(lineNo, b);
      if (!isSlottedScheme(e.scheme))
        parseFail(lineNo, "rbroadcast needs a slotted scheme (cff | icff): "
                          "NACK repair drives the depth-indexed slot "
                          "schedule, which '" + b + "' does not have");
      if (ls >> c) {
        const double budget = parseNumber(lineNo, c, "a repair budget");
        if (budget < 0 || budget != static_cast<double>(
                                        static_cast<int>(budget)))
          parseFail(lineNo, "invalid repair budget '" + c + "'");
        e.repairBudget = static_cast<int>(budget);
      }
    } else if (op == "gather") {
      e.kind = ScenarioEvent::Kind::kGather;
    } else if (op == "compact") {
      e.kind = ScenarioEvent::Kind::kCompact;
    } else if (op == "validate") {
      e.kind = ScenarioEvent::Kind::kValidate;
    } else if (op == "crash") {
      e.kind = ScenarioEvent::Kind::kCrash;
      if (!(ls >> a)) parseFail(lineNo, "crash needs a node id");
      e.node = parseNode(lineNo, a);
      if (ls >> b) {
        const double r = parseNumber(lineNo, b, "a round");
        if (r <= 0 || r != static_cast<double>(static_cast<Round>(r)))
          parseFail(lineNo, "crash round must be a positive integer, got '" +
                                b + "'");
        e.round = static_cast<Round>(r);
      }
    } else if (op == "faults") {
      e.kind = ScenarioEvent::Kind::kFaults;
      if (!(ls >> a)) parseFail(lineNo, "faults needs a regime spec");
      if (a == "none") {
        e.faultKind = ScenarioEvent::FaultKind::kNone;
      } else if (a == "drop") {
        e.faultKind = ScenarioEvent::FaultKind::kDrop;
        if (!(ls >> b)) parseFail(lineNo, "faults drop needs a probability");
        e.dropProbability = parseProbability(lineNo, b, "drop probability");
      } else if (a == "burst") {
        e.faultKind = ScenarioEvent::FaultKind::kBurst;
        std::string w1, w2, w3;
        if (!(ls >> w1 >> w2 >> w3))
          parseFail(lineNo, "faults burst needs pEnter pExit dropBurst");
        e.burst.pEnterBurst = parseProbability(lineNo, w1, "pEnter");
        e.burst.pExitBurst = parseProbability(lineNo, w2, "pExit");
        if (e.burst.pEnterBurst <= 0.0)
          parseFail(lineNo, "pEnter must be positive (use 'faults none' to "
                            "disable)");
        if (e.burst.pExitBurst <= 0.0)
          parseFail(lineNo, "pExit must be positive");
        e.burst.dropBurst = parseProbability(lineNo, w3, "dropBurst");
        if (std::string w4; ls >> w4)
          e.burst.dropGood = parseProbability(lineNo, w4, "dropGood");
      } else if (a == "jam") {
        e.faultKind = ScenarioEvent::FaultKind::kJam;
        std::string w1, w2, w3;
        if (!(ls >> w1 >> w2 >> w3))
          parseFail(lineNo, "faults jam needs x y radius");
        e.jam.center = {parseNumber(lineNo, w1, "x"),
                        parseNumber(lineNo, w2, "y")};
        e.jam.radius = parseNumber(lineNo, w3, "a radius");
        if (e.jam.radius <= 0.0)
          parseFail(lineNo, "jam radius must be positive, got '" + w3 + "'");
        if (std::string w4; ls >> w4) {
          const double from = parseNumber(lineNo, w4, "a start round");
          if (from < 0) parseFail(lineNo, "jam start round must be >= 0");
          e.jam.fromRound = static_cast<Round>(from);
          if (std::string w5; ls >> w5) {
            const double to = parseNumber(lineNo, w5, "an end round");
            if (to <= from)
              parseFail(lineNo, "jam interval must be non-empty");
            e.jam.toRound = static_cast<Round>(to);
          }
        }
      } else {
        parseFail(lineNo, "unknown fault regime '" + a +
                              "' (drop | burst | jam | none)");
      }
    } else if (op == "repair") {
      e.kind = ScenarioEvent::Kind::kRepair;
    } else if (op == "waypoint") {
      e.kind = ScenarioEvent::Kind::kWaypoint;
      if (!(ls >> a >> b)) parseFail(lineNo, "waypoint needs steps maxstep");
      const double steps = parseNumber(lineNo, a, "a tick count");
      if (steps <= 0 ||
          steps != static_cast<double>(static_cast<int>(steps)))
        parseFail(lineNo, "waypoint steps must be a positive integer");
      e.steps = static_cast<int>(steps);
      e.magnitude = parseNumber(lineNo, b, "a step distance");
      if (e.magnitude <= 0.0)
        parseFail(lineNo, "waypoint step distance must be positive");
    } else if (op == "churn") {
      e.kind = ScenarioEvent::Kind::kChurn;
      if (!(ls >> a)) parseFail(lineNo, "churn needs a rate");
      e.magnitude = parseNumber(lineNo, a, "an event rate");
      if (e.magnitude < 0.0) parseFail(lineNo, "churn rate must be >= 0");
      if (ls >> b) {
        const double ticks = parseNumber(lineNo, b, "a tick count");
        if (ticks <= 0 ||
            ticks != static_cast<double>(static_cast<int>(ticks)))
          parseFail(lineNo, "churn ticks must be a positive integer");
        e.steps = static_cast<int>(ticks);
      }
    } else {
      parseFail(lineNo, "unknown event '" + op + "'");
    }

    std::string extra;
    if (ls >> extra)
      parseFail(lineNo, "trailing input '" + extra + "'");
    events.push_back(e);
  }
  return events;
}

std::vector<ScenarioEvent> parseScenario(const std::string& text) {
  std::istringstream in(text);
  return parseScenario(in);
}

namespace {

// %.17g keeps a format/parse round trip value-exact for doubles.
std::string fmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* schemeWord(BroadcastScheme s) {
  switch (s) {
    case BroadcastScheme::kDfo: return "dfo";
    case BroadcastScheme::kCff: return "cff";
    case BroadcastScheme::kImprovedCff: return "icff";
    case BroadcastScheme::kFlooding: return "flood";
    case BroadcastScheme::kGossip: return "gossip";
    case BroadcastScheme::kGossipAdaptive: return "agossip";
    case BroadcastScheme::kCounter: return "counter";
    case BroadcastScheme::kDistance: return "distance";
    case BroadcastScheme::kRlnc: return "rlnc";
  }
  return "icff";
}

}  // namespace

std::string formatScenarioEvent(const ScenarioEvent& e) {
  std::ostringstream os;
  switch (e.kind) {
    case ScenarioEvent::Kind::kJoin:
      os << "join " << fmtDouble(e.position.x) << ' '
         << fmtDouble(e.position.y);
      break;
    case ScenarioEvent::Kind::kLeave:
      os << "leave " << e.node;
      break;
    case ScenarioEvent::Kind::kMove:
      os << "move " << e.node << ' ' << fmtDouble(e.position.x) << ' '
         << fmtDouble(e.position.y);
      break;
    case ScenarioEvent::Kind::kJoinGroup:
      os << "group " << e.node << ' ' << e.group;
      break;
    case ScenarioEvent::Kind::kLeaveGroup:
      os << "ungroup " << e.node << ' ' << e.group;
      break;
    case ScenarioEvent::Kind::kBroadcast:
      os << "broadcast ";
      if (e.node == kInvalidNode)
        os << "random";
      else
        os << e.node;
      os << ' ' << schemeWord(e.scheme);
      break;
    case ScenarioEvent::Kind::kArena:
      os << "arena ";
      if (e.node == kInvalidNode)
        os << "random";
      else
        os << e.node;
      break;
    case ScenarioEvent::Kind::kReliableBroadcast:
      os << "rbroadcast ";
      if (e.node == kInvalidNode)
        os << "random";
      else
        os << e.node;
      os << ' ' << schemeWord(e.scheme) << ' ' << e.repairBudget;
      break;
    case ScenarioEvent::Kind::kMulticast:
      os << "multicast " << e.node << ' ' << e.group << ' '
         << (e.multicastMode == MulticastMode::kFullFlood ? "flood"
                                                          : "pruned");
      break;
    case ScenarioEvent::Kind::kGather:
      os << "gather";
      break;
    case ScenarioEvent::Kind::kCompact:
      os << "compact";
      break;
    case ScenarioEvent::Kind::kValidate:
      os << "validate";
      break;
    case ScenarioEvent::Kind::kCrash:
      os << "crash " << e.node;
      if (e.round > 0) os << ' ' << e.round;
      break;
    case ScenarioEvent::Kind::kFaults:
      os << "faults ";
      switch (e.faultKind) {
        case ScenarioEvent::FaultKind::kNone:
          os << "none";
          break;
        case ScenarioEvent::FaultKind::kDrop:
          os << "drop " << fmtDouble(e.dropProbability);
          break;
        case ScenarioEvent::FaultKind::kBurst:
          os << "burst " << fmtDouble(e.burst.pEnterBurst) << ' '
             << fmtDouble(e.burst.pExitBurst) << ' '
             << fmtDouble(e.burst.dropBurst);
          if (e.burst.dropGood != 0.0)
            os << ' ' << fmtDouble(e.burst.dropGood);
          break;
        case ScenarioEvent::FaultKind::kJam:
          os << "jam " << fmtDouble(e.jam.center.x) << ' '
             << fmtDouble(e.jam.center.y) << ' ' << fmtDouble(e.jam.radius);
          if (e.jam.fromRound != 0 ||
              e.jam.toRound != std::numeric_limits<Round>::max()) {
            os << ' ' << e.jam.fromRound;
            if (e.jam.toRound != std::numeric_limits<Round>::max())
              os << ' ' << e.jam.toRound;
          }
          break;
      }
      break;
    case ScenarioEvent::Kind::kRepair:
      os << "repair";
      break;
    case ScenarioEvent::Kind::kWaypoint:
      os << "waypoint " << e.steps << ' ' << fmtDouble(e.magnitude);
      break;
    case ScenarioEvent::Kind::kChurn:
      os << "churn " << fmtDouble(e.magnitude);
      if (e.steps != 1) os << ' ' << e.steps;
      break;
  }
  return os.str();
}

std::string formatScenario(const std::vector<ScenarioEvent>& events) {
  std::string out;
  for (const auto& e : events) {
    out += formatScenarioEvent(e);
    out += '\n';
  }
  return out;
}

bool scenarioEventMutatesNetwork(const ScenarioEvent& event) {
  switch (event.kind) {
    case ScenarioEvent::Kind::kBroadcast:
    case ScenarioEvent::Kind::kArena:
    case ScenarioEvent::Kind::kReliableBroadcast:
    case ScenarioEvent::Kind::kMulticast:
    case ScenarioEvent::Kind::kGather:
    case ScenarioEvent::Kind::kValidate:
    case ScenarioEvent::Kind::kFaults:
      return false;
    case ScenarioEvent::Kind::kJoin:
    case ScenarioEvent::Kind::kLeave:
    case ScenarioEvent::Kind::kMove:
    case ScenarioEvent::Kind::kJoinGroup:
    case ScenarioEvent::Kind::kLeaveGroup:
    case ScenarioEvent::Kind::kCompact:
    case ScenarioEvent::Kind::kCrash:
    case ScenarioEvent::Kind::kRepair:
    case ScenarioEvent::Kind::kWaypoint:
    case ScenarioEvent::Kind::kChurn:
      return true;
  }
  return true;  // unreachable; default to the safe classification
}

bool scenarioMutatesNetwork(const std::vector<ScenarioEvent>& events) {
  for (const ScenarioEvent& e : events)
    if (scenarioEventMutatesNetwork(e)) return true;
  return false;
}

ScenarioOutcome runScenario(SensorNetwork& net,
                            const std::vector<ScenarioEvent>& events,
                            const ScenarioOptions& options) {
  ScenarioOutcome out;
  Rng rng(options.seed);
  // Fault regimes installed by `faults` events (and radio deaths from
  // scheduled `crash` events) accumulate here and apply to every later
  // communication event.
  ProtocolOptions effective = options.protocol;

  auto note = [&out](std::ostringstream& os) {
    out.log.push_back(os.str());
  };
  auto collectTrace = [&out](const Trace& t) {
    if (!t.enabled()) return;
    out.traceEvents.insert(out.traceEvents.end(), t.events().begin(),
                           t.events().end());
    out.traceDropped += t.droppedEvents();
  };
  auto validateNow = [&]() {
    const auto report = net.validate();
    if (!report.ok() && out.valid) {
      out.valid = false;
      out.firstViolation = report.summary();
    }
    return report.ok();
  };

  for (const auto& e : events) {
    std::ostringstream os;
    os << "L" << e.sourceLine << " ";
    switch (e.kind) {
      case ScenarioEvent::Kind::kJoin: {
        bool joined = false;
        const NodeId id = net.addSensor(e.position, &joined);
        os << "join -> node " << id
           << (joined ? " (in net)" : " (out of range)");
        break;
      }
      case ScenarioEvent::Kind::kLeave: {
        DSN_REQUIRE(net.clusterNet().contains(e.node),
                    "scenario: leave of node not in net");
        const auto report = net.removeSensor(e.node);
        os << "leave " << e.node << " -> |T|=" << report.subtreeSize
           << " orphans=" << report.orphaned << " rounds="
           << report.cost.total();
        break;
      }
      case ScenarioEvent::Kind::kMove: {
        const bool inNet = net.moveSensor(e.node, e.position);
        os << "move " << e.node << " -> "
           << (inNet ? "in net" : "out of range");
        break;
      }
      case ScenarioEvent::Kind::kJoinGroup:
        net.joinGroup(e.node, e.group);
        os << "group " << e.node << " += " << e.group;
        break;
      case ScenarioEvent::Kind::kLeaveGroup:
        net.leaveGroup(e.node, e.group);
        os << "group " << e.node << " -= " << e.group;
        break;
      case ScenarioEvent::Kind::kBroadcast: {
        const NodeId source =
            e.node == kInvalidNode ? net.randomNode(rng) : e.node;
        const BroadcastScheme scheme =
            options.forceScheme.value_or(e.scheme);
        const auto run =
            net.broadcast(scheme, source, 0xB0CA57, effective);
        ++out.broadcasts;
        out.worstCoverage = std::min(out.worstCoverage, run.coverage());
        collectTrace(run.trace);
        os << "broadcast " << toString(scheme) << " from " << source
           << " -> coverage " << run.coverage() << " in "
           << run.sim.rounds << " rounds";
        break;
      }
      case ScenarioEvent::Kind::kArena: {
        // Race every scheme from the same source under the same
        // effective fault regime. The comparison is the point, so the
        // outcome folds the BEST coverage achieved (a rival losing
        // nodes is an expected result, not a scenario failure).
        const NodeId source =
            e.node == kInvalidNode ? net.randomNode(rng) : e.node;
        double best = 0.0;
        bool any = false;
        os << "arena from " << source << " ->";
        for (const BroadcastScheme scheme : kAllBroadcastSchemes) {
          const auto run =
              net.broadcast(scheme, source, 0xB0CA57, effective);
          best = std::max(best, run.coverage());
          any = true;
          collectTrace(run.trace);
          os << ' ' << toString(scheme) << ' ' << run.coverage() << '@'
             << run.completionRounds();
        }
        ++out.arenas;
        if (any) out.worstCoverage = std::min(out.worstCoverage, best);
        break;
      }
      case ScenarioEvent::Kind::kMulticast: {
        const auto run = net.multicast(e.node, e.group, 0x0CA57,
                                       e.multicastMode, effective);
        ++out.multicasts;
        out.worstCoverage = std::min(out.worstCoverage, run.coverage());
        collectTrace(run.trace);
        os << "multicast g" << e.group << " from " << e.node
           << " -> coverage " << run.coverage() << " ("
           << run.transmissions << " tx)";
        break;
      }
      case ScenarioEvent::Kind::kGather: {
        std::vector<std::uint64_t> values(net.graph().size(), 0);
        for (NodeId v : net.clusterNet().netNodes()) values[v] = v;
        const auto result =
            runConvergecast(net.clusterNet(), values, effective);
        ++out.gathers;
        out.worstYield = std::min(out.worstYield, result.yield());
        collectTrace(result.trace);
        os << "gather -> yield " << result.yield() << " sum "
           << result.aggregate << " in " << result.sim.rounds
           << " rounds";
        break;
      }
      case ScenarioEvent::Kind::kCompact: {
        const auto rounds = net.clusterNet().compactSlots();
        os << "compact -> " << rounds << " rounds, windows b/l now "
           << net.clusterNet().rootMaxBSlot() << "/"
           << net.clusterNet().rootMaxLSlot();
        break;
      }
      case ScenarioEvent::Kind::kValidate: {
        os << "validate -> " << (validateNow() ? "ok" : "VIOLATION");
        break;
      }
      case ScenarioEvent::Kind::kReliableBroadcast: {
        const NodeId source =
            e.node == kInvalidNode ? net.randomNode(rng) : e.node;
        ReliableOptions ropt;
        ropt.base = effective;
        ropt.maxRepairRounds = e.repairBudget;
        const auto run =
            net.reliableBroadcast(e.scheme, source, 0xB0CA57, ropt);
        ++out.reliableBroadcasts;
        out.worstCoverage = std::min(out.worstCoverage, run.coverage());
        collectTrace(run.wave.trace);
        os << "rbroadcast " << toString(e.scheme) << " from " << source
           << " -> coverage " << run.coverage() << " (wave "
           << run.wave.coverage() << ") in " << run.totalRounds
           << " rounds, " << run.repairRoundsUsed << " repair, "
           << run.retransmissions << " retx";
        break;
      }
      case ScenarioEvent::Kind::kCrash: {
        if (e.round > 0) {
          // Radio-level death: applies inside every later simulator run.
          effective.deaths.emplace_back(e.node, e.round);
          os << "crash " << e.node << " @r" << e.round
             << " (radio deaths now " << effective.deaths.size() << ")";
        } else {
          DSN_REQUIRE(net.graph().isAlive(e.node),
                      "scenario: crash of node not deployed");
          net.crashSensor(e.node);
          if (obs::FlightRecorder* fr =
                  obs::recorderFor<obs::kFrCatFault>()) {
            obs::FrEvent ev;
            ev.node = e.node;
            ev.type = static_cast<std::uint8_t>(obs::FrType::kCrash);
            fr->record(ev);
          }
          ++out.crashes;
          os << "crash " << e.node << " -> structure "
             << (net.hasStaleStructure() ? "stale" : "clean");
        }
        break;
      }
      case ScenarioEvent::Kind::kFaults: {
        switch (e.faultKind) {
          case ScenarioEvent::FaultKind::kNone:
            effective.dropProbability = 0.0;
            effective.burst = BurstLossParams{};
            effective.jamZones.clear();
            effective.nodePositions.clear();
            os << "faults none";
            break;
          case ScenarioEvent::FaultKind::kDrop:
            effective.dropProbability = e.dropProbability;
            os << "faults drop p=" << e.dropProbability;
            break;
          case ScenarioEvent::FaultKind::kBurst:
            effective.burst = e.burst;
            os << "faults burst enter=" << e.burst.pEnterBurst
               << " exit=" << e.burst.pExitBurst;
            break;
          case ScenarioEvent::FaultKind::kJam:
            effective.jamZones.push_back(e.jam);
            os << "faults jam (" << e.jam.center.x << "," << e.jam.center.y
               << ") r=" << e.jam.radius;
            break;
        }
        break;
      }
      case ScenarioEvent::Kind::kRepair: {
        const auto report = net.repairAfterFailures();
        ++out.repairs;
        os << "repair -> pruned " << report.staleRemoved << " reattached "
           << report.reattached << " orphans " << report.orphaned
           << " rounds " << report.cost.total()
           << (report.rootReseeded ? " (root reseeded)" : "");
        break;
      }
      case ScenarioEvent::Kind::kWaypoint: {
        // The walk field is the deployment's bounding box (grown to at
        // least one radio range) — self-contained and deterministic.
        Field f{net.range(), net.range()};
        for (NodeId v : net.graph().liveNodes()) {
          if (!net.index().contains(v)) continue;
          f.width = std::max(f.width, net.position(v).x);
          f.height = std::max(f.height, net.position(v).y);
        }
        RandomWaypointMobility walker(f, e.magnitude, rng.next());
        std::size_t moves = 0;
        for (int s = 0; s < e.steps; ++s) {
          for (NodeId v : net.clusterNet().netNodes()) {
            if (!net.graph().isAlive(v)) continue;
            net.moveSensor(v, walker.advance(v, net.position(v)));
            ++moves;
          }
        }
        os << "waypoint " << e.steps << " ticks -> " << moves << " moves";
        break;
      }
      case ScenarioEvent::Kind::kChurn: {
        Field f{net.range(), net.range()};
        for (NodeId v : net.graph().liveNodes()) {
          if (!net.index().contains(v)) continue;
          f.width = std::max(f.width, net.position(v).x);
          f.height = std::max(f.height, net.position(v).y);
        }
        std::size_t crashes = 0, joins = 0, leaves = 0;
        for (int s = 0; s < e.steps; ++s) {
          const double whole = std::floor(e.magnitude);
          std::size_t k = static_cast<std::size_t>(whole);
          if (rng.chance(e.magnitude - whole)) ++k;
          for (std::size_t i = 0; i < k; ++i) {
            const std::uint64_t pick = rng.uniform(3);
            if (pick == 2) {
              net.addSensor({rng.uniformReal(0.0, f.width),
                             rng.uniformReal(0.0, f.height)});
              ++joins;
              continue;
            }
            if (net.size() <= 2) continue;
            const NodeId v = net.randomNode(rng);
            // A node that crashed earlier (this tick, or in an unrepaired
            // `crash` event) stays in the net until the next repair; it
            // can neither crash again nor leave, so the draw is skipped.
            if (!net.graph().isAlive(v)) continue;
            if (pick == 0) {
              net.crashSensor(v);
              ++crashes;
            } else {
              net.removeSensor(v);
              ++leaves;
            }
          }
          // Crashes are repaired per tick, so the event ends clean and
          // implicit validation stays on.
          if (net.hasStaleStructure()) {
            net.repairAfterFailures();
            ++out.repairs;
          }
        }
        out.crashes += crashes;
        os << "churn " << e.steps << " ticks -> " << crashes << " crashes "
           << joins << " joins " << leaves << " leaves";
        break;
      }
    }
    note(os);
    ++out.eventsExecuted;
    // Implicit validation is suspended while crashes have left the
    // structure stale (every invariant check would fail by design until
    // a `repair` event runs); an explicit `validate` line still reports.
    if (options.validateEachStep &&
        e.kind != ScenarioEvent::Kind::kValidate &&
        !net.hasStaleStructure()) {
      validateNow();
    }
  }
  return out;
}

}  // namespace dsn
