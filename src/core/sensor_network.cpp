#include "core/sensor_network.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

std::vector<Point2D> makePoints(const NetworkConfig& cfg) {
  Rng rng(cfg.seed);
  const DeployConfig dc{cfg.field, cfg.range, cfg.nodeCount};
  switch (cfg.deployment) {
    case DeploymentKind::kIncrementalAttach:
      return deployIncrementalAttach(dc, rng);
    case DeploymentKind::kUniform:
      return deployUniform(dc, rng);
    case DeploymentKind::kGrid:
      return deployGrid(dc);
    case DeploymentKind::kLine:
      return deployLine(cfg.nodeCount, cfg.range);
    case DeploymentKind::kStar:
      return deployStar(cfg.nodeCount, cfg.range);
  }
  DSN_CHECK(false, "unknown deployment kind");
  return {};
}

}  // namespace

std::string deploymentWordList(std::string_view separator) {
  std::string out;
  for (const std::string_view word : kDeploymentWords) {
    if (!out.empty()) out += separator;
    out += word;
  }
  return out;
}

SensorNetwork::SensorNetwork(const NetworkConfig& config)
    : points_(makePoints(config)),
      range_(config.range),
      index_(config.range),
      autoRepair_(config.autoRepair) {
  buildFromPoints(config.cluster);
}

SensorNetwork::SensorNetwork(std::vector<Point2D> points, double range,
                             ClusterNetConfig clusterConfig)
    : points_(std::move(points)), range_(range), index_(range) {
  buildFromPoints(clusterConfig);
}

void SensorNetwork::buildFromPoints(const ClusterNetConfig& clusterConfig) {
  DSN_REQUIRE(range_ > 0.0, "communication range must be positive");
  DSN_TIMED_PHASE("cnet.build");
  graph_ = std::make_unique<Graph>(buildUnitDiskGraph(points_, range_));
  net_ = std::make_unique<ClusterNet>(*graph_, clusterConfig);
  for (NodeId v = 0; v < points_.size(); ++v) index_.insert(v, points_[v]);

  // Self-construction: move nodes in one by one; a node is insertable
  // once it has a neighbor inside the net. Deployment order works for
  // incremental-attach layouts; for arbitrary layouts the re-join sweep
  // repeats until no progress (covers exactly the component of node 0).
  std::vector<NodeId> pending(points_.size());
  for (NodeId v = 0; v < points_.size(); ++v) pending[v] = v;
  net_->moveInReachable(pending);
}

NodeId SensorNetwork::addSensor(const Point2D& p, bool* joined) {
  // The query refuses a point off the index's grid before anything
  // changes.
  index_.queryNeighbors(p, nearby_);
  const NodeId v = graph_->addNode();
  for (NodeId u : nearby_) {
    if (graph_->isAlive(u)) graph_->addEdge(v, u);
  }
  index_.insert(v, p);

  const bool canJoin = net_->canMoveIn(v);
  if (canJoin) net_->moveIn(v);
  if (joined) *joined = canJoin;
  return v;
}

bool SensorNetwork::moveSensor(NodeId v, const Point2D& newPosition) {
  DSN_REQUIRE(graph_->isAlive(v), "moveSensor: node not deployed");
  // Queried first, so a point off the index's grid is refused before
  // anything changes. v still sits at its old position here, so the
  // result may hold v itself; the re-wiring below skips it.
  index_.queryNeighbors(newPosition, nearby_);

  // 1. Leave the structure (if inside); the subtree re-homes through the
  //    regular node-move-out machinery, but the node stays deployed.
  if (net_->contains(v)) net_->withdraw(v);

  // 2. Re-wire the radio neighborhood. The node currently carries no
  //    slots (withdraw cleared them), so edge changes cannot invalidate
  //    anyone's TDM conditions. The index keeps the id and migrates it
  //    between grid cells in place.
  formerNeighbors_ = graph_->neighbors(v);
  for (NodeId u : formerNeighbors_) graph_->removeEdge(v, u);
  index_.updatePosition(v, newPosition);
  for (NodeId u : nearby_) {
    if (u != v && graph_->isAlive(u)) graph_->addEdge(v, u);
  }

  // 3. Re-join at the new spot when the net is reachable.
  const bool canJoin = net_->canMoveIn(v);
  if (canJoin) net_->moveIn(v);
  return canJoin;
}

RoundCost SensorNetwork::rebuildStructure() {
  DSN_TIMED_PHASE("cnet.rebuild");
  // Capture group memberships; the fresh structure starts without them.
  std::vector<std::pair<NodeId, GroupId>> memberships;
  for (NodeId v : net_->netNodes()) {
    for (GroupId g : net_->groupsOf(v)) memberships.emplace_back(v, g);
  }

  auto fresh = std::make_unique<ClusterNet>(*graph_, net_->config());
  // Self-construction over the live deployment, exactly like initial
  // construction: the re-join sweep covers the component of the lowest
  // live id.
  std::vector<NodeId> pending = graph_->liveNodes();
  fresh->moveInReachable(pending);
  for (const auto& [v, g] : memberships) {
    if (fresh->contains(v)) fresh->joinGroup(v, g);
  }
  net_ = std::move(fresh);
  if (obs::enabled())
    obs::globalMetrics().counter("cluster.churn.rebuilds").increment();
  return net_->costs();
}

MoveOutReport SensorNetwork::removeSensor(NodeId v) {
  DSN_REQUIRE(net_->contains(v), "removeSensor: node not in the net");
  DSN_REQUIRE(graph_->isAlive(v), "removeSensor: node not deployed");
  index_.remove(v);
  return net_->moveOut(v);  // also removes v from the graph
}

MoveOutReport SensorNetwork::withdrawSensor(NodeId v) {
  DSN_REQUIRE(net_->contains(v), "withdrawSensor: node not in the net");
  return net_->withdraw(v);
}

void SensorNetwork::crashSensor(NodeId v) {
  DSN_REQUIRE(graph_->isAlive(v), "crashSensor: node not deployed");
  // No move-out protocol: the node just disappears from the radio field.
  // The cluster structure is untouched and now references a dead node.
  if (index_.contains(v)) index_.remove(v);
  graph_->removeNode(v);
  if (obs::enabled()) obs::globalMetrics().counter("core.crashes").increment();
  if (autoRepair_) repairAfterFailures();
}

bool SensorNetwork::rejoinSensor(NodeId v) {
  DSN_REQUIRE(graph_->isAlive(v), "rejoinSensor: node not deployed");
  DSN_REQUIRE(!net_->contains(v), "rejoinSensor: node already in net");
  const bool canJoin = net_->canMoveIn(v);
  if (canJoin) net_->moveIn(v);
  return canJoin;
}

ProtocolOptions SensorNetwork::withPositions(
    const ProtocolOptions& options, bool force) const {
  // Jam zones need positions for the radio model; the distance-based
  // suppression rival needs them for its protocol logic.
  const bool needsPositions = force || !options.jamZones.empty();
  if (!needsPositions || !options.nodePositions.empty()) return options;
  ProtocolOptions filled = options;
  filled.nodePositions.resize(graph_->size());
  for (NodeId v = 0; v < graph_->size(); ++v) {
    if (index_.contains(v)) filled.nodePositions[v] = index_.position(v);
  }
  return filled;
}

BroadcastRun SensorNetwork::broadcast(BroadcastScheme scheme, NodeId source,
                                      std::uint64_t payload,
                                      const ProtocolOptions& options) const {
  return runBroadcast(
      scheme, *net_, source, payload,
      withPositions(options, scheme == BroadcastScheme::kDistance));
}

BroadcastRun SensorNetwork::multicast(NodeId source, GroupId group,
                                      std::uint64_t payload,
                                      MulticastMode mode,
                                      const ProtocolOptions& options) const {
  return runMulticast(*net_, source, group, payload, mode,
                      withPositions(options));
}

ReliableBroadcastRun SensorNetwork::reliableBroadcast(
    BroadcastScheme scheme, NodeId source, std::uint64_t payload,
    const ReliableOptions& options) const {
  ReliableOptions filled = options;
  filled.base = withPositions(options.base);
  return runReliableBroadcast(scheme, *net_, source, payload, filled);
}

NodeId SensorNetwork::randomNode(Rng& rng) const {
  const auto nodes = net_->netNodes();
  DSN_REQUIRE(!nodes.empty(), "randomNode: empty network");
  return nodes[rng.pickIndex(nodes)];
}

std::uint64_t deploymentFingerprint(const NetworkConfig& config) {
  // SplitMix64 chaining (the ExperimentConfig::trialSeed rule): fold
  // each field's raw bits through the finalizer so every field
  // perturbs every output bit. Doubles go in by bit pattern — configs
  // compare by exact value, not approximate geometry.
  const auto bits = [](double v) {
    std::uint64_t out;
    static_assert(sizeof(out) == sizeof(v));
    std::memcpy(&out, &v, sizeof(out));
    return out;
  };
  std::uint64_t h = mix64(0xD5CE7F1A6B0A11ull);
  h = mix64(h ^ bits(config.field.width));
  h = mix64(h ^ bits(config.field.height));
  h = mix64(h ^ bits(config.range));
  h = mix64(h ^ static_cast<std::uint64_t>(config.nodeCount));
  h = mix64(h ^ config.seed);
  h = mix64(h ^ static_cast<std::uint64_t>(config.deployment));
  h = mix64(h ^ static_cast<std::uint64_t>(config.cluster.slotPolicy));
  // The attach preference and attach seed, no longer settable, folded at
  // the values every program used (0 = lowest id, 0x5EED5EED) so that
  // fingerprints, and the serve records that carry them, stay unchanged.
  h = mix64(h ^ 0);
  h = mix64(h ^ 0x5EED5EEDull);
  h = mix64(h ^ static_cast<std::uint64_t>(config.autoRepair ? 1 : 0));
  return h;
}

}  // namespace dsn
