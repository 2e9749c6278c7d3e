#include "broadcast/runner.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/flooding_baseline.hpp"
#include "broadcast/gossip.hpp"
#include "broadcast/rlnc.hpp"
#include "broadcast/runner_detail.hpp"
#include "broadcast/suppression.hpp"
#include "graph/algorithms.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace dsn {

namespace {

/// Fills the delivery and energy fields of `run` from the finished
/// simulator; per-node delivery comes from the swarm.
void collectRunStats(const RadioSimulator& sim,
                     const std::vector<NodeId>& intended,
                     const PayloadSwarm& swarm, BroadcastRun& run) {
  run.intended = intended.size();
  run.delivered = 0;
  run.lastDeliveryRound = -1;
  for (NodeId v : intended) {
    if (swarm.hasPayload(v)) {
      ++run.delivered;
      run.lastDeliveryRound =
          std::max(run.lastDeliveryRound, swarm.payloadRound(v));
    }
  }
  run.maxAwakeRounds = sim.energy().maxAwakeRounds();
  run.meanAwakeRounds = sim.energy().meanAwakeRounds();
  run.transmissions = run.sim.totalTransmissions;
  run.collisions = run.sim.totalCollisions;
  run.decodeFailures = swarm.decodeFailures();

  if (sim.trace().enabled()) run.trace = sim.trace();

  const std::size_t n = sim.energy().nodeCount();
  run.deliveryRound.assign(n, -1);
  run.listenRounds.assign(n, 0);
  run.transmitRounds.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (swarm.hasPayload(v)) run.deliveryRound[v] = swarm.payloadRound(v);
    run.listenRounds[v] =
        static_cast<std::uint32_t>(sim.energy().node(v).listenRounds);
    run.transmitRounds[v] =
        static_cast<std::uint32_t>(sim.energy().node(v).transmitRounds);
  }
}

/// Per-protocol telemetry, flushed once per run. The delivery-latency
/// histogram feeds Fig. 8-style completion-time distributions; the awake
/// statistics (via RunningStats over per-node listen+transmit rounds)
/// feed the Fig. 9 energy story.
void flushBroadcastMetrics(BroadcastScheme scheme,
                           const BroadcastRun& run) {
  if (!obs::enabled()) return;
  auto& m = obs::globalMetrics();
  const std::string prefix = "broadcast.";
  const std::string scheme_tag(toString(scheme));
  m.counter(prefix + "runs").increment();
  m.counter(prefix + "runs." + scheme_tag).increment();
  m.counter(prefix + "intended").increment(run.intended);
  m.counter(prefix + "delivered").increment(run.delivered);
  if (!run.allDelivered()) m.counter(prefix + "incomplete").increment();
  if (run.decodeFailures > 0)
    m.counter(prefix + "decode_failures").increment(run.decodeFailures);

  auto& latency = m.histogram(prefix + "delivery_latency",
                              obs::Histogram::exponentialBounds(16));
  for (const Round r : run.deliveryRound)
    if (r >= 0) latency.observe(static_cast<double>(r) + 1.0);

  RunningStats awake;
  const std::size_t n =
      std::min(run.listenRounds.size(), run.transmitRounds.size());
  for (std::size_t v = 0; v < n; ++v)
    awake.add(static_cast<double>(run.listenRounds[v]) +
              static_cast<double>(run.transmitRounds[v]));
  if (awake.count() > 0) {
    m.gauge(prefix + "mean_awake_rounds").set(awake.mean());
    m.gauge(prefix + "max_awake_rounds").set(awake.max());
  }
}

constexpr obs::FrRunKind runKind(BroadcastScheme s) {
  switch (s) {
    case BroadcastScheme::kDfo:
      return obs::FrRunKind::kDfo;
    case BroadcastScheme::kCff:
      return obs::FrRunKind::kCff;
    case BroadcastScheme::kImprovedCff:
      return obs::FrRunKind::kIcff;
    case BroadcastScheme::kFlooding:
      return obs::FrRunKind::kFlooding;
    case BroadcastScheme::kGossip:
      return obs::FrRunKind::kGossip;
    case BroadcastScheme::kGossipAdaptive:
      return obs::FrRunKind::kGossipAdaptive;
    case BroadcastScheme::kCounter:
      return obs::FrRunKind::kCounter;
    case BroadcastScheme::kDistance:
      return obs::FrRunKind::kDistance;
    case BroadcastScheme::kRlnc:
      return obs::FrRunKind::kRlnc;
  }
  return obs::FrRunKind::kDfo;
}

constexpr std::string_view phaseName(BroadcastScheme s) {
  switch (s) {
    case BroadcastScheme::kDfo:
      return "broadcast.DFO";
    case BroadcastScheme::kCff:
      return "broadcast.CFF";
    case BroadcastScheme::kImprovedCff:
      return "broadcast.ICFF";
    case BroadcastScheme::kFlooding:
      return "broadcast.FLOOD";
    case BroadcastScheme::kGossip:
      return "broadcast.GOSSIP";
    case BroadcastScheme::kGossipAdaptive:
      return "broadcast.AGOSSIP";
    case BroadcastScheme::kCounter:
      return "broadcast.COUNTER";
    case BroadcastScheme::kDistance:
      return "broadcast.DISTANCE";
    case BroadcastScheme::kRlnc:
      return "broadcast.RLNC";
  }
  return "broadcast.?";
}

/// Dispatches a flat-graph rival with configs derived from
/// `options.arena`.
BroadcastRun runRival(BroadcastScheme scheme, const Graph& g, NodeId source,
                      std::uint64_t payload,
                      const ProtocolOptions& options) {
  const ArenaTuning& a = options.arena;
  switch (scheme) {
    case BroadcastScheme::kFlooding: {
      FloodingConfig fc;
      fc.gossipProbability = 1.0;
      fc.contentionWindow = a.contentionWindow;
      fc.seed = a.seed;
      return runFloodingBroadcast(g, source, payload, fc, options);
    }
    case BroadcastScheme::kGossip:
    case BroadcastScheme::kGossipAdaptive: {
      GossipConfig gc;
      gc.probability = a.gossipProbability;
      gc.adaptive = scheme == BroadcastScheme::kGossipAdaptive;
      gc.fanout = a.adaptiveFanout;
      gc.contentionWindow = a.contentionWindow;
      gc.seed = a.seed;
      return runGossipBroadcast(g, source, payload, gc, options);
    }
    case BroadcastScheme::kCounter: {
      CounterConfig cc;
      cc.counterThreshold = a.counterThreshold;
      cc.contentionWindow = a.contentionWindow;
      cc.seed = a.seed;
      return runCounterBroadcast(g, source, payload, cc, options);
    }
    case BroadcastScheme::kDistance: {
      DistanceConfig dc;
      dc.suppressRadius = a.suppressRadius;
      dc.contentionWindow = a.contentionWindow;
      dc.seed = a.seed;
      return runDistanceBroadcast(g, source, payload, dc, options);
    }
    case BroadcastScheme::kRlnc: {
      RlncConfig rc;
      rc.contentionWindow = a.contentionWindow;
      rc.sourceBudget = a.rlncSourceBudget;
      rc.relayBudget = a.rlncRelayBudget;
      rc.seed = a.seed;
      return runRlncBroadcast(g, source, payload, rc, options);
    }
    default:
      DSN_CHECK(false, "runRival called with a cluster scheme");
  }
  BroadcastRun empty;
  return empty;
}

}  // namespace

namespace detail {

BroadcastRun runPayloadSwarm(const Graph& g, const SimConfig& config,
                             std::unique_ptr<PayloadSwarm> swarm,
                             const std::vector<NodeId>& members,
                             const std::vector<NodeId>& intended,
                             Round scheduleLength,
                             const ProtocolOptions& options) {
  RadioSimulator sim(g, config);
  applyFailures(sim, options);
  const PayloadSwarm* installed = swarm.get();
  sim.setSwarm(std::move(swarm), members);

  BroadcastRun run;
  run.scheduleLength = scheduleLength;
  run.sim = sim.run();
  collectRunStats(sim, intended, *installed, run);
  return run;
}

Round flatListenBudget(const Graph& g, int contentionWindow,
                       const ProtocolOptions& options) {
  if (options.maxRounds > 0) return options.maxRounds;
  return static_cast<Round>(g.liveCount()) * (contentionWindow + 1) + 16;
}

BroadcastRun runFlatRival(const Graph& g, NodeId source, Round maxListen,
                          std::unique_ptr<FlatSwarm> swarm,
                          const ProtocolOptions& options) {
  const auto intended = reachableFrom(g, source);
  return runPayloadSwarm(g, simConfig(1, maxListen + 4, options),
                         std::move(swarm), intended, intended, maxListen,
                         options);
}

}  // namespace detail

bool parseBroadcastScheme(std::string_view word, BroadcastScheme& out) {
  if (word == "dfo") out = BroadcastScheme::kDfo;
  else if (word == "cff") out = BroadcastScheme::kCff;
  else if (word == "icff") out = BroadcastScheme::kImprovedCff;
  else if (word == "flood") out = BroadcastScheme::kFlooding;
  else if (word == "gossip") out = BroadcastScheme::kGossip;
  else if (word == "agossip") out = BroadcastScheme::kGossipAdaptive;
  else if (word == "counter") out = BroadcastScheme::kCounter;
  else if (word == "distance") out = BroadcastScheme::kDistance;
  else if (word == "rlnc") out = BroadcastScheme::kRlnc;
  else return false;
  return true;
}

BroadcastRun runBroadcast(BroadcastScheme scheme, const ClusterNet& net,
                          NodeId source, std::uint64_t payload,
                          const ProtocolOptions& options) {
  DSN_TIMED_PHASE(phaseName(scheme));
  obs::recordRunBegin(runKind(scheme), source);
  BroadcastRun run;
  switch (scheme) {
    case BroadcastScheme::kDfo:
      run = runDfoBroadcast(net, source, payload, options);
      break;
    case BroadcastScheme::kCff:
      run = runCffBroadcast(net, source, payload, options);
      break;
    case BroadcastScheme::kImprovedCff:
      run = runImprovedCffBroadcast(net, source, payload, options);
      break;
    default:
      DSN_CHECK(isRandomizedScheme(scheme), "unknown broadcast scheme");
      run = runRival(scheme, net.graph(), source, payload, options);
      break;
  }
  obs::recordRunEnd(runKind(scheme),
                    static_cast<std::uint32_t>(run.delivered),
                    static_cast<std::uint32_t>(run.sim.rounds));
  flushBroadcastMetrics(scheme, run);
  return run;
}

}  // namespace dsn
