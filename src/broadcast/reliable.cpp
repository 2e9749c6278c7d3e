#include "broadcast/reliable.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "broadcast/runner.hpp"
#include "broadcast/runner_detail.hpp"
#include "broadcast/tdm.hpp"
#include "cluster/cnet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "radio/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsn {

namespace {

/// From the second repair round on, each responder answers with this
/// probability (a hash-coin backoff that thins colliding replies).
constexpr double kResponderKeepProbability = 0.7;

/// Deterministic coin in [0,1) from (seed, node, repair round); drives
/// the responder backoff without any shared RNG state.
double hashCoin(std::uint64_t seed, NodeId v, int repairRound) {
  const std::uint64_t h =
      mix64(mix64(seed ^ (0xBACC0FFull + v)) ^
            static_cast<std::uint64_t>(repairRound));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// One repair round's swarm, keyed by node id. An uncovered node sends
/// one NACK in its depth's sub-window of the NACK phase, then listens
/// through the whole data phase. A covered node listens through the NACK
/// phase and, if it heard a NACK and its backoff coin lets it, resends
/// the payload once in its depth's sub-window of the data phase.
class RepairSwarm final : public PayloadSwarm {
 public:
  /// `window` (>= 1) is the largest up-slot, the TDM window basis, and
  /// `subWindows` = maxDepth + 1 per phase.
  RepairSwarm(std::size_t nodeCount, TimeSlot window, Channel channels,
              int subWindows, std::uint64_t payload)
      : PayloadSwarm(nodeCount),
        tdm_(window, channels),
        nackEnd_(static_cast<Round>(subWindows) * tdm_.windowLength()),
        repairPayload_(payload),
        depth_(nodeCount, 0),
        slot_(nodeCount, 1) {}

  /// Rounds of both phases.
  Round scheduleLength() const { return 2 * nackEnd_; }

  /// Registers node `v` with its up-slot (the root falls back to slot
  /// 1), whether it already holds the payload and, for a covered node,
  /// whether its responder coin lets it answer.
  void addMember(NodeId v, Depth depth, TimeSlot slot, bool covered,
                 bool eligible) {
    addHolder(v, false, 0);
    depth_[v] = depth;
    slot_[v] = slot;
    if (covered) flags_[v] |= kCovered;
    if (eligible) flags_[v] |= kEligible;
  }

  Action onRound(NodeId v, Round r) override {
    std::uint8_t& f = flags_[v];
    if (f & kCovered) {
      if (r < nackEnd_) return Action::listen();
      if (!(f & kHeardNack) || !(f & kEligible)) {
        f |= kDone;
        return Action::sleep();
      }
      const Round tx = nackEnd_ + subWindowRound(v);
      if (r == tx) {
        f |= kDone | kResponded;
        Message m = frame(v, MsgKind::kData);
        m.payload = repairPayload_;
        return Action::transmit(m, tdm_.channelOf(slot_[v]));
      }
      if (r > tx) f |= kDone;
      return Action::sleep();
    }

    // Uncovered: one NACK in our depth's sub-window, then listen through
    // the whole data phase.
    if (f & kHasPayload) {
      f |= kDone;
      return Action::sleep();
    }
    if (r == subWindowRound(v)) {
      f |= kNackSent;
      return Action::transmit(frame(v, MsgKind::kNack),
                              tdm_.channelOf(slot_[v]));
    }
    if (r >= nackEnd_) return Action::listen();
    return Action::sleep();
  }

  void onReceive(NodeId v, const Message& m, Round r, Channel) override {
    if (flags_[v] & kCovered) {
      if (m.kind == MsgKind::kNack) flags_[v] |= kHeardNack;
      return;
    }
    if (m.kind == MsgKind::kData) takePayload(v, m.payload, r);
  }

  bool isDone(NodeId v) const override { return (flags_[v] & kDone) != 0; }

  Round nextWake(NodeId v, Round now) const override {
    const std::uint8_t f = flags_[v];
    if (f & kDone) return kNoWake;
    if (f & kCovered) {
      if (now + 1 < nackEnd_) return now + 1;  // NACK-phase listening
      if (!(f & kHeardNack) || !(f & kEligible))
        return now + 1;  // done transition
      const Round tx = nackEnd_ + subWindowRound(v);
      return tx > now ? tx : now + 1;
    }
    if (f & kHasPayload) return now + 1;  // done transition
    const Round nackTx = subWindowRound(v);
    if (nackTx > now) return nackTx;  // our NACK sub-window slot
    if (now + 1 < nackEnd_) return nackEnd_;  // sleep out the NACK phase
    return now + 1;  // data-phase listening
  }

  bool nackSent(NodeId v) const { return (flags_[v] & kNackSent) != 0; }
  bool responded(NodeId v) const { return (flags_[v] & kResponded) != 0; }

 private:
  static constexpr std::uint8_t kCovered = 2;
  static constexpr std::uint8_t kEligible = 4;
  static constexpr std::uint8_t kHeardNack = 8;
  static constexpr std::uint8_t kNackSent = 16;
  static constexpr std::uint8_t kResponded = 32;
  static constexpr std::uint8_t kDone = 64;

  /// Node v's round within its phase: its depth's sub-window plus its
  /// up-slot offset.
  Round subWindowRound(NodeId v) const {
    return static_cast<Round>(depth_[v]) * tdm_.windowLength() +
           tdm_.roundOffset(slot_[v]);
  }

  Message frame(NodeId v, MsgKind kind) const {
    Message m;
    m.kind = kind;
    m.sender = v;
    m.depth = depth_[v];
    m.slot = slot_[v];
    return m;
  }

  TdmMap tdm_;
  Round nackEnd_;
  std::uint64_t repairPayload_;
  std::vector<Depth> depth_;
  std::vector<TimeSlot> slot_;
};

/// Shifts the failure plan of `base` by `elapsed` virtual rounds so a
/// repair-round simulator (whose clock restarts at 0) sees deaths and
/// jam intervals at the right wall-clock moments. Drop/burst coins get a
/// per-round derived seed.
ProtocolOptions shiftedOptions(const ProtocolOptions& base, Round elapsed,
                               int repairRound) {
  ProtocolOptions out = base;
  const std::uint64_t salt =
      std::uint64_t{0x5EC0FDA7} + static_cast<std::uint64_t>(repairRound);
  out.failureSeed = mix64(base.failureSeed ^ salt);
  out.deaths.clear();
  for (const auto& [node, round] : base.deaths)
    out.deaths.emplace_back(node, std::max<Round>(0, round - elapsed));
  out.jamZones.clear();
  for (JamZone z : base.jamZones) {
    if (z.toRound != std::numeric_limits<Round>::max()) {
      if (z.toRound - elapsed <= 0) continue;  // interval already over
      z.toRound -= elapsed;
    }
    z.fromRound = std::max<Round>(0, z.fromRound - elapsed);
    out.jamZones.push_back(z);
  }
  return out;
}

void flushReliableMetrics(const ReliableBroadcastRun& run) {
  if (!obs::enabled()) return;
  auto& m = obs::globalMetrics();
  m.counter("broadcast.reliable.runs").increment();
  m.counter("broadcast.reliable.repair_rounds")
      .increment(static_cast<std::uint64_t>(run.repairRoundsUsed));
  m.counter("broadcast.reliable.nacks").increment(run.nacksSent);
  m.counter("broadcast.reliable.retransmissions")
      .increment(run.retransmissions);
  m.counter("broadcast.reliable.residual_uncovered")
      .increment(run.residualUncovered);
  m.histogram("broadcast.reliable.repair_rounds_used",
              obs::Histogram::exponentialBounds(6))
      .observe(static_cast<double>(run.repairRoundsUsed));
}

}  // namespace

ReliableBroadcastRun runReliableBroadcast(BroadcastScheme scheme,
                                          const ClusterNet& net,
                                          NodeId source,
                                          std::uint64_t payload,
                                          const ReliableOptions& options) {
  DSN_REQUIRE(isSlottedScheme(scheme),
              "reliable mode needs a slotted flooding scheme (CFF/iCFF): "
              "the NACK repair waves reuse the depth-indexed slot "
              "schedule, which the DFO token tour and the flat arena "
              "rivals do not have");
  DSN_REQUIRE(options.maxRepairRounds >= 0,
              "maxRepairRounds must be non-negative");
  DSN_TIMED_PHASE("broadcast.reliable");
  obs::recordRunBegin(obs::FrRunKind::kReliable, source);

  const Graph& g = net.graph();
  ReliableBroadcastRun run;
  run.wave = runBroadcast(scheme, net, source, payload, options.base);

  // Intended = alive net nodes (a stale structure may still reference
  // crashed ones; they are not reachable and not counted).
  std::vector<NodeId> intended;
  Depth maxDepth = 0;
  for (NodeId v : net.netNodes()) {
    if (!g.isAlive(v)) continue;
    intended.push_back(v);
    maxDepth = std::max(maxDepth, net.depth(v));
  }
  run.intended = intended.size();

  run.deliveryRound = run.wave.deliveryRound;
  run.deliveryRound.resize(g.size(), -1);
  std::vector<char> covered(g.size(), 0);
  for (NodeId v : intended)
    if (run.deliveryRound[v] >= 0) covered[v] = 1;

  Round elapsed = run.wave.sim.rounds;

  const TimeSlot upWindow = net.rootMaxUpSlot();
  for (int k = 0; k < options.maxRepairRounds; ++k) {
    // A node already scheduled to be dead by now cannot be repaired;
    // exclude it from the active uncovered set so it does not burn the
    // remaining budget.
    std::vector<NodeId> uncovered;
    for (NodeId v : intended) {
      if (covered[v]) continue;
      bool deadNow = false;
      for (const auto& [node, round] : options.base.deaths)
        if (node == v && round <= elapsed) deadNow = true;
      if (!deadNow) uncovered.push_back(v);
    }
    if (uncovered.empty()) break;

    const ProtocolOptions opts = shiftedOptions(options.base, elapsed, k);
    auto swarm = std::make_unique<RepairSwarm>(
        g.size(), upWindow == 0 ? 1 : upWindow, opts.channels,
        static_cast<int>(maxDepth) + 1, payload);
    for (NodeId v : intended) {
      const bool eligible =
          k == 0 || hashCoin(options.base.failureSeed, v, k) <
                        kResponderKeepProbability;
      swarm->addMember(v, net.depth(v),
                       net.upSlot(v) == kNoSlot ? 1 : net.upSlot(v),
                       covered[v] != 0, eligible);
    }

    SimConfig cfg;
    cfg.channelCount = opts.channels;
    cfg.traceCapacity = 0;
    cfg.scheduling = opts.scheduling;
    cfg.resolveScratch = opts.resolveScratch;
    cfg.maxRounds = swarm->scheduleLength();

    RadioSimulator sim(g, cfg);
    detail::applyFailures(sim, opts);
    const RepairSwarm& repair = *swarm;
    sim.setSwarm(std::move(swarm), intended);

    const SimResult result = sim.run();
    ++run.repairRoundsUsed;

    for (NodeId v : intended) {
      if (repair.nackSent(v)) ++run.nacksSent;
      if (repair.responded(v)) ++run.retransmissions;
      if (!covered[v] && repair.hasPayload(v)) {
        covered[v] = 1;
        run.deliveryRound[v] = elapsed + repair.payloadRound(v);
      }
    }
    elapsed += result.rounds;
  }

  run.delivered = 0;
  for (NodeId v : intended)
    if (covered[v]) ++run.delivered;
  run.residualUncovered = run.intended - run.delivered;
  run.totalRounds = elapsed;
  obs::recordRunEnd(obs::FrRunKind::kReliable,
                    static_cast<std::uint32_t>(run.delivered),
                    static_cast<std::uint32_t>(run.totalRounds));
  flushReliableMetrics(run);
  return run;
}

}  // namespace dsn
