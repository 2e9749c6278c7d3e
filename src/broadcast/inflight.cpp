#include "broadcast/inflight.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "broadcast/runner_detail.hpp"
#include "broadcast/slotted_swarm.hpp"
#include "util/error.hpp"

namespace dsn {

InFlightBroadcast::InFlightBroadcast(const ClusterNet& net,
                                     BroadcastScheme scheme, NodeId source,
                                     std::uint64_t payload,
                                     const ProtocolOptions& options)
    : graph_(net.graph()) {
  DSN_REQUIRE(net.contains(source),
              "in-flight broadcast source must be in the net");
  DSN_REQUIRE(isSlottedScheme(scheme),
              "in-flight waves require a slotted flooding scheme "
              "(CFF/iCFF): resyncTopology re-admits via the depth-indexed "
              "slot schedule, which DFO and the flat arena rivals lack");
  admitSize_ = graph_.size();
  displaced_.assign(admitSize_, 0);
  // The same admission the one-shot runners use: the schedule an
  // in-flight wave carries is the one a one-shot run would compute.
  SlottedWave wave =
      scheme == BroadcastScheme::kCff
          ? admitCffWave(net, source, payload, options.channels)
          : admitIcffWave(net, source, std::nullopt, payload,
                          MulticastMode::kFullFlood, options.channels);
  schedule_ = wave.schedule;
  const SimConfig cfg = slottedSimConfig(schedule_, options);
  horizon_ = cfg.maxRounds;
  sim_ = std::make_unique<RadioSimulator>(graph_, cfg);
  detail::applyFailures(*sim_, options);
  swarm_ = wave.swarm.get();
  sim_->setSwarm(std::move(wave.swarm), wave.members);
  intended_ = std::move(wave.intended);
  // Start the engine at round 0 without executing anything, so the seam
  // (resyncTopology) is usable even before the first advance.
  lastResult_ = sim_->runUntil(0);
}

InFlightBroadcast::~InFlightBroadcast() = default;

void InFlightBroadcast::advanceTo(Round stop) {
  if (sim_->finished()) return;
  lastResult_ = sim_->runUntil(std::min(stop, horizon_));
}

void InFlightBroadcast::noteDisplaced(NodeId v) {
  if (v < displaced_.size()) displaced_[v] = 1;
}

void InFlightBroadcast::onTopologyChanged() {
  if (sim_->finished()) return;
  sim_->resyncTopology();
}

bool InFlightBroadcast::deliveredTo(NodeId v) const {
  return v < admitSize_ && swarm_->hasPayload(v);
}

InFlightReport InFlightBroadcast::finish() const {
  DSN_REQUIRE(sim_->finished(), "InFlightBroadcast::finish: wave not done");
  InFlightReport r;
  r.sim = lastResult_;
  r.scheduleLength = schedule_;
  r.intended = intended_.size();
  r.transmissions = lastResult_.totalTransmissions;
  r.collisions = lastResult_.totalCollisions;
  for (NodeId v : intended_) {
    const bool has = deliveredTo(v);
    if (!graph_.isAlive(v)) {
      ++r.departed;
      continue;
    }
    if (has) {
      ++r.delivered;
      r.lastDeliveryRound =
          std::max(r.lastDeliveryRound, swarm_->payloadRound(v));
    }
    if (displaced_[v] != 0) {
      ++r.displaced;
    } else {
      ++r.settled;
      if (has) ++r.deliveredSettled;
    }
  }
  return r;
}

}  // namespace dsn
