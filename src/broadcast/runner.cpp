#include "broadcast/runner.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/runner_detail.hpp"
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

}  // namespace detail

std::string schemeWordList(std::string_view separator) {
  std::string out;
  for (const BroadcastScheme s : kAllBroadcastSchemes) {
    if (!out.empty()) out += separator;
    out += schemeWord(s);
  }
  return out;
}

bool parseBroadcastScheme(std::string_view word, BroadcastScheme& out) {
  for (const BroadcastScheme s : kAllBroadcastSchemes) {
    if (schemeWord(s) == word) {
      out = s;
      return true;
    }
  }
  return false;
}

BroadcastRun runRivalBroadcast(BroadcastScheme scheme, const Graph& g,
                               NodeId source, std::uint64_t payload,
                               const ProtocolOptions& options) {
  DSN_REQUIRE(isRandomizedScheme(scheme),
              "runRivalBroadcast needs a flat rival scheme");
  DSN_REQUIRE(g.isAlive(source), "rival source must be live");
  const int window = options.arena.contentionWindow;
  DSN_REQUIRE(window >= 1, "contention window must be >= 1");
  // With no schedule to sleep on, an unserved node listens for
  // options.maxRounds, or when that is 0, for one contention window
  // plus one round per live node, + 16.
  const Round maxListen =
      options.maxRounds > 0
          ? options.maxRounds
          : static_cast<Round>(g.liveCount()) * (window + 1) + 16;
  std::unique_ptr<detail::FlatSwarm> swarm;
  switch (scheme) {
    case BroadcastScheme::kCounter:
    case BroadcastScheme::kDistance:
      swarm = detail::makeSuppressionSwarm(scheme, g, source, payload,
                                           maxListen, options);
      break;
    case BroadcastScheme::kRlnc:
      swarm = detail::makeRlncSwarm(g, source, payload, maxListen, options);
      break;
    default:
      swarm = detail::makeRelaySwarm(scheme, g, source, payload, maxListen,
                                     options);
      break;
  }
  // Every node reachable from the source is an intended receiver.
  const auto intended = reachableFrom(g, source);
  return detail::runPayloadSwarm(
      g, detail::simConfig(1, maxListen + 4, options), std::move(swarm),
      intended, intended, maxListen, options);
}

BroadcastRun runBroadcast(BroadcastScheme scheme, const ClusterNet& net,
                          NodeId source, std::uint64_t payload,
                          const ProtocolOptions& options) {
  const BroadcastSchemeInfo& info = schemeInfo(scheme);
  DSN_TIMED_PHASE(info.phase);
  obs::recordRunBegin(info.runKind, source);
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
      run = runRivalBroadcast(scheme, net.graph(), source, payload, options);
      break;
  }
  obs::recordRunEnd(info.runKind,
                    static_cast<std::uint32_t>(run.delivered),
                    static_cast<std::uint32_t>(run.sim.rounds));
  flushBroadcastMetrics(scheme, run);
  return run;
}

}  // namespace dsn
