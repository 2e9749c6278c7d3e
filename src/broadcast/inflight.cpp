#include "broadcast/inflight.hpp"

#include <algorithm>
#include <memory>

#include "broadcast/cff_swarm.hpp"
#include "broadcast/improved_cff.hpp"
#include "broadcast/runner_detail.hpp"
#include "broadcast/tdm.hpp"
#include "cluster/soa.hpp"
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
  if (scheme == BroadcastScheme::kCff)
    admitCff(net, source, payload, options);
  else
    admitIcff(net, source, payload, options);
  // Start the engine at round 0 without executing anything, so the seam
  // (resyncTopology) is usable even before the first advance.
  lastResult_ = sim_->runUntil(0);
}

InFlightBroadcast::~InFlightBroadcast() = default;

void InFlightBroadcast::admitCff(const ClusterNet& net, NodeId source,
                                 std::uint64_t payload,
                                 const ProtocolOptions& options) {
  // Mirrors runCffBroadcast's admission exactly: the schedule an
  // in-flight wave carries is the one a one-shot run would compute.
  std::vector<NodeId> path;
  for (NodeId v = source; v != kInvalidNode; v = net.parent(v))
    path.push_back(v);
  const Round floodStart = static_cast<Round>(path.size()) - 1;

  const TimeSlot window = net.rootMaxUSlot();
  const TdmMap tdm(window == 0 ? 1 : window, options.channels);
  schedule_ = floodStart +
              static_cast<Round>(net.height() + 1) * tdm.windowLength();

  SimConfig cfg;
  cfg.channelCount = options.channels;
  cfg.maxRounds = options.maxRounds > 0 ? options.maxRounds : schedule_ + 4;
  cfg.traceCapacity = options.traceCapacity;
  detail::applyScheduling(cfg, options);
  horizon_ = cfg.maxRounds;

  sim_ = std::make_unique<RadioSimulator>(graph_, cfg);
  detail::applyFailures(*sim_, options);

  CffSwarmConfig sc;
  sc.window = window;
  sc.channels = options.channels;
  sc.floodStart = floodStart;
  sc.payload = payload;
  auto swarm = std::make_unique<CffSwarm>(sc, graph_.size());
  cffView_ = swarm.get();

  const ClusterScheduleView sched = ClusterScheduleView::build(net);

  std::vector<int> pathIndexOf(graph_.size(), -1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    pathIndexOf[path[i]] = static_cast<int>(i);

  intended_.reserve(sched.members().size());
  for (NodeId v : sched.members()) {
    if (!graph_.isAlive(v)) continue;
    intended_.push_back(v);
    const int pathIndex = pathIndexOf[v];
    const NodeId pathNext =
        pathIndex >= 0 ? path[static_cast<std::size_t>(pathIndex) + 1]
                       : kInvalidNode;
    swarm->addMember(v, sched.depth(v),
                     sched.isBackbone(v) ? sched.uSlot(v) : kNoSlot, pathIndex,
                     pathNext, v == source);
  }
  sim_->setSwarm(std::move(swarm), intended_);
}

void InFlightBroadcast::admitIcff(const ClusterNet& net, NodeId source,
                                  std::uint64_t payload,
                                  const ProtocolOptions& options) {
  // Mirrors runIcff's full-flood admission (no group filter).
  std::vector<NodeId> path;
  for (NodeId v = source; v != kInvalidNode; v = net.parent(v))
    path.push_back(v);
  const Round backboneStart = static_cast<Round>(path.size()) - 1;

  const ClusterScheduleView sched = ClusterScheduleView::build(net);

  int backboneHeight = 0;
  for (NodeId v : sched.members())
    if (sched.isBackbone(v))
      backboneHeight =
          std::max(backboneHeight, static_cast<int>(sched.depth(v)));

  const TimeSlot bWindow = net.rootMaxBSlot();
  const TimeSlot lWindow = net.rootMaxLSlot();
  const TdmMap bTdm(bWindow == 0 ? 1 : bWindow, options.channels);
  const TdmMap lTdm(lWindow == 0 ? 1 : lWindow, options.channels);
  schedule_ = backboneStart +
              static_cast<Round>(backboneHeight + 1) * bTdm.windowLength() +
              lTdm.windowLength();

  SimConfig cfg;
  cfg.channelCount = options.channels;
  cfg.maxRounds = options.maxRounds > 0 ? options.maxRounds : schedule_ + 4;
  cfg.traceCapacity = options.traceCapacity;
  detail::applyScheduling(cfg, options);
  horizon_ = cfg.maxRounds;

  sim_ = std::make_unique<RadioSimulator>(graph_, cfg);
  detail::applyFailures(*sim_, options);

  endpoints_.assign(graph_.size(), nullptr);

  std::vector<int> pathIndexOf(graph_.size(), -1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    pathIndexOf[path[i]] = static_cast<int>(i);

  for (NodeId v : sched.members()) {
    if (!graph_.isAlive(v)) continue;
    IcffNodeConfig nc;
    nc.self = v;
    nc.depth = sched.depth(v);
    nc.backbone = sched.isBackbone(v);
    nc.bSlot = nc.backbone ? sched.bSlot(v) : kNoSlot;
    nc.lSlot = nc.backbone ? sched.lSlot(v) : kNoSlot;
    nc.bWindow = bWindow;
    nc.lWindow = lWindow;
    nc.channels = options.channels;
    nc.backboneStart = backboneStart;
    nc.backboneHeight = backboneHeight;
    nc.isSource = v == source;
    nc.payload = payload;
    if (pathIndexOf[v] >= 0) {
      nc.pathIndex = pathIndexOf[v];
      nc.pathNext = path[static_cast<std::size_t>(nc.pathIndex) + 1];
    }
    nc.wantsPayload = true;
    nc.relays = nc.backbone;
    intended_.push_back(v);
    auto p = std::make_unique<IcffNodeProtocol>(nc);
    endpoints_[v] = p.get();
    sim_->setProtocol(v, std::move(p));
  }
}

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
  if (v >= admitSize_) return false;
  if (cffView_) return cffView_->hasPayload(v);
  return endpoints_[v] != nullptr && endpoints_[v]->hasPayload();
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
      if (cffView_)
        r.lastDeliveryRound =
            std::max(r.lastDeliveryRound, cffView_->payloadRound(v));
      else
        r.lastDeliveryRound =
            std::max(r.lastDeliveryRound, endpoints_[v]->payloadRound());
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
