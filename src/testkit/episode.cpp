#include "testkit/episode.hpp"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.hpp"
#include "testkit/reference_radio.hpp"
#include "testkit/seeds.hpp"
#include "testkit/spec_check.hpp"

namespace dsn::testkit {

namespace {

/// Episode executor: holds the network under test plus the accumulated
/// fault regime, and applies the oracle battery after every op.
class Episode {
 public:
  Episode(const FuzzProgram& program, const EpisodeOptions& options)
      : program_(program), options_(options) {}

  EpisodeResult run() {
    NetworkConfig cfg;
    cfg.field = Field::squareUnits(program_.fieldUnits);
    cfg.range = program_.range;
    cfg.nodeCount = program_.nodeCount;
    cfg.seed = deploySeed(program_.seed);
    cfg.deployment = DeploymentKind::kIncrementalAttach;
    net_ = std::make_unique<SensorNetwork>(cfg);

    checkStructure();
    for (std::size_t i = 0; ok() && i < program_.ops.size(); ++i) {
      opIndex_ = static_cast<int>(i);
      execute(program_.ops[i]);
    }
    return std::move(result_);
  }

 private:
  const FuzzProgram& program_;
  const EpisodeOptions& options_;
  std::unique_ptr<SensorNetwork> net_;
  EpisodeResult result_;
  int opIndex_ = -1;
  // Accumulated fault regime (0 none, 1 drop, 2 burst, 3 jam).
  int faultRegime_ = 0;
  double dropProbability_ = 0.0;
  BurstLossParams burst_{};
  std::vector<JamZone> jams_;

  bool ok() const { return result_.ok; }
  bool faultsActive() const { return faultRegime_ != 0; }

  void fold(std::uint64_t x) { fnvFold(result_.digest, x); }

  void foldRun(const BroadcastRun& r) {
    ++result_.simRuns;
    fold(r.intended);
    fold(r.delivered);
    fold(static_cast<std::uint64_t>(r.lastDeliveryRound + 1));
    fold(r.transmissions);
    fold(r.collisions);
    fold(static_cast<std::uint64_t>(r.sim.rounds));
    fold(r.sim.droppedTransmissions);
    fold(r.sim.jammedLosses);
  }

  void fail(std::string cls, std::string message) {
    if (!result_.ok) return;  // keep the first failure
    result_.ok = false;
    result_.failureClass = std::move(cls);
    result_.message = std::move(message);
    result_.failingOp = opIndex_;
  }

  std::vector<NodeId> aliveNetNodes() const {
    std::vector<NodeId> out;
    for (NodeId v : net_->clusterNet().netNodes())
      if (net_->graph().isAlive(v)) out.push_back(v);
    return out;
  }

  /// Modular pick over the current alive net nodes; kInvalidNode when
  /// the net is empty (the op is then skipped).
  NodeId resolve(std::uint64_t pick) const {
    const auto nodes = aliveNetNodes();
    if (nodes.empty()) return kInvalidNode;
    return nodes[pick % nodes.size()];
  }

  ProtocolOptions baseOptions() const {
    ProtocolOptions o;
    o.channels = options_.channels;
    o.traceCapacity = options_.traceCapacity;
    o.failureSeed =
        failureSeed(program_.seed, static_cast<std::uint64_t>(opIndex_));
    o.arena.seed =
        arenaSeed(program_.seed, static_cast<std::uint64_t>(opIndex_));
    switch (faultRegime_) {
      case 1: o.dropProbability = dropProbability_; break;
      case 2: o.burst = burst_; break;
      case 3: o.jamZones = jams_; break;
      default: break;
    }
    return o;
  }

  std::uint64_t payload() const {
    return std::uint64_t{0xDA7A0000} + static_cast<std::uint64_t>(opIndex_);
  }

  void record(const ScenarioEvent& e) { result_.executed.push_back(e); }

  /// Both the shipping validator and the independent spec checker must
  /// call a non-stale structure clean — and must agree.
  void checkStructure() {
    if (net_->hasStaleStructure()) return;
    const ValidationReport report = net_->validate();
    const auto issues = checkSpec(net_->clusterNet());
    const bool validatorClean = report.ok();
    const bool specClean = issues.empty();
    if (validatorClean && specClean) return;
    std::ostringstream os;
    if (validatorClean != specClean) {
      os << "validator and spec checker disagree: validator says "
         << (validatorClean ? "clean" : "violated") << ", spec checker says "
         << (specClean ? "clean" : "violated") << " — "
         << (validatorClean ? describeIssues(issues) : report.summary());
      fail("oracle-divergence", os.str());
    } else {
      os << "structure violated: " << report.summary();
      fail("structure-violation", os.str());
    }
  }

  void checkTrace(const BroadcastRun& run, const char* what) {
    const auto issues = checkTraceConsistency(run.trace, net_->graph(),
                                              options_.channels);
    if (issues.empty()) return;
    std::ostringstream os;
    os << what << " trace violates the radio axioms: " << issues.front();
    fail("trace-inconsistency", os.str());
  }

  void execute(const FuzzOp& op) {
    switch (op.kind) {
      case OpKind::kJoin: doJoin(op); break;
      case OpKind::kLeave: doLeave(op); break;
      case OpKind::kCrash: doCrash(op); break;
      case OpKind::kFaultFlip: doFaultFlip(op); break;
      case OpKind::kRepair: doRepair(); break;
      case OpKind::kBroadcast: doBroadcast(op); break;
      case OpKind::kReliableBroadcast: doReliableBroadcast(op); break;
      case OpKind::kMulticast: doMulticast(op); break;
      case OpKind::kMove: doMove(op); break;
    }
  }

  void skip() { ++result_.opsSkipped; }

  void doJoin(const FuzzOp& op) {
    if (net_->hasStaleStructure()) return skip();
    bool joined = false;
    net_->addSensor(op.position, &joined);
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kJoin;
    e.position = op.position;
    record(e);
    fold(joined ? 1 : 2);
    fold(net_->clusterNet().netSize());
    checkStructure();
  }

  void doLeave(const FuzzOp& op) {
    if (net_->hasStaleStructure()) return skip();
    if (net_->clusterNet().netSize() <= 1) return skip();
    const NodeId v = resolve(op.pick);
    if (v == kInvalidNode) return skip();
    net_->removeSensor(v);
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kLeave;
    e.node = v;
    record(e);
    fold(3);
    fold(v);
    fold(net_->clusterNet().netSize());
    checkStructure();
  }

  void doMove(const FuzzOp& op) {
    if (net_->hasStaleStructure()) return skip();
    if (net_->clusterNet().netSize() <= 1) return skip();
    const NodeId v = resolve(op.pick);
    if (v == kInvalidNode) return skip();
    const bool inNet = net_->moveSensor(v, op.position);
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kMove;
    e.node = v;
    e.position = op.position;
    record(e);
    fold(7);
    fold(v);
    fold(inNet ? 1 : 2);
    fold(net_->clusterNet().netSize());
    checkStructure();
  }

  void doCrash(const FuzzOp& op) {
    if (net_->clusterNet().netSize() <= 1) return skip();
    const NodeId v = resolve(op.pick);
    if (v == kInvalidNode || v == net_->clusterNet().root()) return skip();
    net_->crashSensor(v);
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kCrash;
    e.node = v;
    record(e);
    fold(4);
    fold(v);
  }

  void doFaultFlip(const FuzzOp& op) {
    faultRegime_ = op.faultRegime;
    dropProbability_ = op.dropProbability;
    burst_ = op.burst;
    jams_.clear();
    if (op.faultRegime == 3) jams_.push_back(op.jam);
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kFaults;
    switch (op.faultRegime) {
      case 1:
        e.faultKind = ScenarioEvent::FaultKind::kDrop;
        e.dropProbability = op.dropProbability;
        break;
      case 2:
        e.faultKind = ScenarioEvent::FaultKind::kBurst;
        e.burst = op.burst;
        break;
      case 3:
        e.faultKind = ScenarioEvent::FaultKind::kJam;
        e.jam = op.jam;
        break;
      default:
        e.faultKind = ScenarioEvent::FaultKind::kNone;
        break;
    }
    record(e);
    fold(5);
    fold(static_cast<std::uint64_t>(op.faultRegime));
  }

  void doRepair() {
    const RecoveryReport report = net_->repairAfterFailures();
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kRepair;
    record(e);
    fold(6);
    fold(report.staleRemoved);
    fold(report.reattached);
    fold(net_->clusterNet().netSize());
    checkStructure();
  }

  void doBroadcast(const FuzzOp& op) {
    const NodeId source = resolve(op.pick);
    if (source == kInvalidNode) return skip();
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kBroadcast;
    e.node = source;
    e.scheme = op.scheme;
    record(e);

    const ProtocolOptions opts = baseOptions();
    if (isRandomizedScheme(op.scheme)) {
      rivalBroadcast(op.scheme, source, opts);
      return;
    }
    const bool clean = !faultsActive() && !net_->hasStaleStructure();
    if (!clean) {
      const BroadcastRun run =
          net_->broadcast(op.scheme, source, payload(), opts);
      foldRun(run);
      checkTrace(run, toString(op.scheme).data());
      return;
    }
    differentialBroadcast(source, opts);
  }

  /// Oracle battery for the randomized flat-graph rivals (gossip,
  /// suppression, RLNC). Exact-set differential equality does not apply
  /// — relay decisions are coin flips and partial coverage is a
  /// legitimate outcome — so the battery checks the properties that ARE
  /// hard contracts of the randomized schemes:
  ///   - seed-determinism: an identical re-run is bit-identical in every
  ///     observable (delivery sets/rounds, tx, collisions, energy);
  ///   - budget-superset (coverage monotonicity): doubling the listen
  ///     budget only extends a run — rounds before the shorter budget
  ///     replay identically, so every short-run delivery recurs in the
  ///     long run at the same round, and coverage never shrinks;
  ///   - no phantom deliveries: delivered ⊆ reachable(source), and the
  ///     source reports round 0;
  ///   - decode-completeness (RLNC): a full-rank decode never fails the
  ///     generation consistency check.
  void rivalBroadcast(BroadcastScheme scheme, NodeId source,
                      const ProtocolOptions& opts) {
    const std::uint64_t p = payload();
    const char* name = toString(scheme).data();
    const BroadcastRun run = net_->broadcast(scheme, source, p, opts);
    foldRun(run);
    checkTrace(run, name);
    if (run.decodeFailures != 0) {
      std::ostringstream os;
      os << name << " had " << run.decodeFailures
         << " inconsistent full-rank decodes";
      fail("rlnc-decode", os.str());
    }

    // No phantom deliveries.
    const auto reachable = reachableFrom(net_->graph(), source);
    std::vector<char> mark(net_->graph().size(), 0);
    for (NodeId v : reachable) mark[v] = 1;
    for (std::size_t v = 0; v < run.deliveryRound.size(); ++v) {
      if (run.deliveryRound[v] >= 0 && !mark[v]) {
        std::ostringstream os;
        os << name << " delivered to node " << v
           << " which is unreachable from source " << source;
        fail("rival-phantom-delivery", os.str());
        break;
      }
    }
    if (source < run.deliveryRound.size() &&
        run.deliveryRound[source] != 0) {
      std::ostringstream os;
      os << name << " source " << source << " reports delivery round "
         << run.deliveryRound[source] << " instead of 0";
      fail("rival-phantom-delivery", os.str());
    }

    // Seed-determinism.
    const BroadcastRun again = net_->broadcast(scheme, source, p, opts);
    foldRun(again);
    if (again.delivered != run.delivered ||
        again.lastDeliveryRound != run.lastDeliveryRound ||
        again.transmissions != run.transmissions ||
        again.collisions != run.collisions ||
        again.sim.rounds != run.sim.rounds ||
        again.deliveryRound != run.deliveryRound ||
        again.listenRounds != run.listenRounds ||
        again.transmitRounds != run.transmitRounds) {
      std::ostringstream os;
      os << name << " re-run with identical seeds diverged: delivered "
         << again.delivered << " vs " << run.delivered << ", tx "
         << again.transmissions << " vs " << run.transmissions;
      fail("rival-nondeterminism", os.str());
    }

    // Budget-superset. The runs replay identically up to the shorter
    // budget, so use explicit budgets B and 2B (not the runner default).
    ProtocolOptions shortOpts = opts;
    shortOpts.maxRounds =
        static_cast<Round>(net_->graph().liveCount()) + 8;
    ProtocolOptions longOpts = opts;
    longOpts.maxRounds = 2 * shortOpts.maxRounds;
    const BroadcastRun shortRun =
        net_->broadcast(scheme, source, p, shortOpts);
    const BroadcastRun longRun =
        net_->broadcast(scheme, source, p, longOpts);
    foldRun(longRun);
    if (longRun.delivered < shortRun.delivered) {
      std::ostringstream os;
      os << name << " with a doubled listen budget delivered "
         << longRun.delivered << " < " << shortRun.delivered;
      fail("rival-budget-superset", os.str());
    }
    const std::size_t n = std::min(shortRun.deliveryRound.size(),
                                   longRun.deliveryRound.size());
    for (std::size_t v = 0; v < n; ++v) {
      if (shortRun.deliveryRound[v] >= 0 &&
          longRun.deliveryRound[v] != shortRun.deliveryRound[v]) {
        std::ostringstream os;
        os << name << " budget prefix diverged at node " << v
           << ": delivery round " << shortRun.deliveryRound[v]
           << " with budget " << shortOpts.maxRounds << " vs "
           << longRun.deliveryRound[v] << " with budget "
           << longOpts.maxRounds;
        fail("rival-budget-superset", os.str());
        break;
      }
    }
  }

  /// Fault-free broadcast on a clean structure: the strongest oracle
  /// setting. All three schemes, the plan replica, and the naive
  /// reference simulator must tell one consistent story.
  void differentialBroadcast(NodeId source, const ProtocolOptions& opts) {
    const std::uint64_t p = payload();
    const BroadcastRun dfo =
        net_->broadcast(BroadcastScheme::kDfo, source, p, opts);
    const BroadcastRun cff =
        net_->broadcast(BroadcastScheme::kCff, source, p, opts);
    const BroadcastRun icff =
        net_->broadcast(BroadcastScheme::kImprovedCff, source, p, opts);
    foldRun(dfo);
    foldRun(cff);
    foldRun(icff);

    const auto requireFull = [&](const BroadcastRun& r, const char* name) {
      if (r.allDelivered()) return;
      std::ostringstream os;
      os << name << " fault-free broadcast from " << source << " reached "
         << r.delivered << "/" << r.intended << " nodes";
      fail("coverage", os.str());
    };
    requireFull(dfo, "DFO");
    requireFull(cff, "CFF");
    requireFull(icff, "ICFF");
    // Note: collision *sites* are legitimate even fault-free — the slot
    // conditions guarantee every listener SOME uniquely-slotted provider,
    // not that no two other providers share a slot. Delivery is the
    // invariant; collision counts are only cross-checked differentially
    // (real vs reference simulator below).
    if (dfo.deliveryRound.size() == cff.deliveryRound.size() &&
        cff.deliveryRound.size() == icff.deliveryRound.size()) {
      for (std::size_t v = 0; v < cff.deliveryRound.size(); ++v) {
        const bool a = dfo.deliveryRound[v] >= 0;
        const bool b = cff.deliveryRound[v] >= 0;
        const bool c = icff.deliveryRound[v] >= 0;
        if (a != b || b != c) {
          std::ostringstream os;
          os << "delivered sets diverge at node " << v << ": DFO " << a
             << ", CFF " << b << ", ICFF " << c;
          fail("differential-delivered", os.str());
          break;
        }
      }
    }
    checkTrace(dfo, "DFO");
    checkTrace(cff, "CFF");
    checkTrace(icff, "ICFF");

    // CFF plan leg: the plan replica through the real simulator vs the
    // naive first-principles simulator (and, optionally, the injected
    // slot-assignment bug the acceptance test relies on).
    CffPlan plan = buildCffPlan(net_->clusterNet(), source, p, opts);
    const bool injected =
        options_.injectCffSlotBug &&
        injectCffSlotCollision(plan, net_->clusterNet());
    const BroadcastRun planRun = runCffPlan(net_->clusterNet(), plan, opts);
    const ReferenceRun ref = runCffPlanReference(net_->graph(), plan);
    foldRun(planRun);
    if (planRun.delivered != ref.delivered ||
        planRun.collisions != ref.collisions ||
        planRun.deliveryRound != ref.deliveryRound) {
      std::ostringstream os;
      os << "real simulator and reference simulator disagree on the CFF "
            "plan: delivered "
         << planRun.delivered << " vs " << ref.delivered << ", collisions "
         << planRun.collisions << " vs " << ref.collisions;
      fail("reference-divergence", os.str());
    }
    if (!injected && (planRun.delivered != cff.delivered ||
                      planRun.collisions != cff.collisions)) {
      std::ostringstream os;
      os << "plan replica diverges from runCffBroadcast: delivered "
         << planRun.delivered << " vs " << cff.delivered;
      fail("plan-divergence", os.str());
    }
    if (!planRun.allDelivered()) {
      std::ostringstream os;
      os << "CFF plan covered " << planRun.delivered << "/"
         << planRun.intended << " nodes on a fault-free run";
      fail("cff-plan-coverage", os.str());
    }
  }

  void doReliableBroadcast(const FuzzOp& op) {
    const NodeId source = resolve(op.pick);
    if (source == kInvalidNode) return skip();
    ++result_.opsExecuted;
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kReliableBroadcast;
    e.node = source;
    e.scheme = op.scheme;
    e.repairBudget = op.repairBudget;
    record(e);

    ReliableOptions ro;
    ro.base = baseOptions();
    ro.maxRepairRounds = op.repairBudget;
    const std::uint64_t p = payload();
    const ReliableBroadcastRun rel =
        net_->reliableBroadcast(op.scheme, source, p, ro);
    // Same scheme, base options and failure seed: the plain run below is
    // the very wave `rel` started from, so reliable must deliver a
    // superset of it.
    const BroadcastRun plain = net_->broadcast(op.scheme, source, p, ro.base);
    foldRun(plain);
    ++result_.simRuns;
    fold(rel.delivered);
    fold(static_cast<std::uint64_t>(rel.repairRoundsUsed));
    fold(rel.nacksSent);
    fold(rel.retransmissions);
    fold(static_cast<std::uint64_t>(rel.totalRounds));

    if (rel.delivered < plain.delivered) {
      std::ostringstream os;
      os << "reliable broadcast delivered " << rel.delivered
         << " < its own plain wave's " << plain.delivered;
      fail("reliable-regression", os.str());
    }
    const std::size_t n =
        std::min(rel.deliveryRound.size(), plain.deliveryRound.size());
    for (std::size_t v = 0; v < n; ++v) {
      if (plain.deliveryRound[v] >= 0 && rel.deliveryRound[v] < 0) {
        std::ostringstream os;
        os << "node " << v
           << " covered by the plain wave but not by reliable mode";
        fail("reliable-regression", os.str());
        break;
      }
    }
    if (!faultsActive() && !net_->hasStaleStructure() &&
        !rel.allDelivered()) {
      std::ostringstream os;
      os << "fault-free reliable broadcast left " << rel.residualUncovered
         << " nodes uncovered";
      fail("coverage", os.str());
    }
    checkTrace(plain, "reliable-wave");
  }

  void doMulticast(const FuzzOp& op) {
    if (net_->hasStaleStructure()) return skip();
    const NodeId source = resolve(op.pick);
    if (source == kInvalidNode) return skip();
    // Make the group non-trivial: enroll a deterministic member first.
    const NodeId member = resolve(op.memberPick);
    if (member == kInvalidNode) return skip();
    ++result_.opsExecuted;
    if (!net_->clusterNet().inGroup(member, op.group)) {
      net_->joinGroup(member, op.group);
      ScenarioEvent je;
      je.kind = ScenarioEvent::Kind::kJoinGroup;
      je.node = member;
      je.group = op.group;
      record(je);
    }
    ScenarioEvent e;
    e.kind = ScenarioEvent::Kind::kMulticast;
    e.node = source;
    e.group = op.group;
    e.multicastMode = MulticastMode::kPrunedRelay;
    record(e);

    const ProtocolOptions opts = baseOptions();
    const std::uint64_t p = payload();
    const BroadcastRun pruned = net_->multicast(
        source, op.group, p, MulticastMode::kPrunedRelay, opts);
    const BroadcastRun flood = net_->multicast(
        source, op.group, p, MulticastMode::kFullFlood, opts);
    foldRun(pruned);
    foldRun(flood);

    if (!faultsActive() && !flood.allDelivered()) {
      std::ostringstream os;
      os << "fault-free full-flood multicast reached " << flood.delivered
         << "/" << flood.intended << " members of group " << op.group;
      fail("multicast-flood-coverage", os.str());
    }
    const std::size_t n =
        std::min(pruned.deliveryRound.size(), flood.deliveryRound.size());
    if (!faultsActive()) {
      for (std::size_t v = 0; v < n; ++v) {
        if (pruned.deliveryRound[v] >= 0 && flood.deliveryRound[v] < 0) {
          std::ostringstream os;
          os << "pruned multicast delivered to node " << v
             << " that full-flood missed";
          fail("multicast-pruned-subset", os.str());
          break;
        }
      }
    }
    checkTrace(pruned, "multicast-pruned");
    checkTrace(flood, "multicast-flood");
  }
};

}  // namespace

EpisodeResult runEpisode(const FuzzProgram& program,
                         const EpisodeOptions& options) {
  return Episode(program, options).run();
}

}  // namespace dsn::testkit
