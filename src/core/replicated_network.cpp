#include "core/replicated_network.hpp"

#include "cluster/construction.hpp"
#include "util/error.hpp"

namespace dsn {

ReplicatedNetwork::ReplicatedNetwork(std::vector<Point2D> points,
                                     double range,
                                     ReplicatedConfig config)
    : index_(range) {
  DSN_REQUIRE(!points.empty(), "replicated network needs nodes");
  DSN_REQUIRE(config.replicaCount >= 1, "need at least one replica");

  graph_ = std::make_unique<Graph>(buildUnitDiskGraph(points, range));
  for (NodeId v = 0; v < points.size(); ++v) index_.insert(v, points[v]);

  const auto roots =
      selectSpreadRoots(*graph_, /*seed=*/0, config.replicaCount);
  for (NodeId root : roots) {
    auto net = std::make_unique<ClusterNet>(*graph_, config.cluster);
    net->buildAll(bfsConstructionOrder(*graph_, root));
    nets_.push_back(std::move(net));
  }
}

NodeId ReplicatedNetwork::addSensor(const Point2D& p) {
  const NodeId v = graph_->addNode();
  for (NodeId u : index_.queryNeighbors(p)) {
    if (graph_->isAlive(u)) graph_->addEdge(v, u);
  }
  index_.insert(v, p);
  for (auto& net : nets_)
    if (net->canMoveIn(v)) net->moveIn(v);
  return v;
}

void ReplicatedNetwork::removeSensor(NodeId v) {
  DSN_REQUIRE(graph_->isAlive(v), "removeSensor: node not deployed");
  for (auto& net : nets_) {
    if (net->contains(v)) net->withdraw(v);
  }
  index_.remove(v);
  graph_->removeNode(v);
}

BroadcastRun ReplicatedNetwork::broadcastVia(
    std::size_t replicaIndex, BroadcastScheme s, NodeId source,
    std::uint64_t payload, const ProtocolOptions& options) const {
  return runBroadcast(s, *nets_.at(replicaIndex), source, payload,
                      options);
}

FailoverRun ReplicatedNetwork::broadcastWithFailover(
    BroadcastScheme s, NodeId source, std::uint64_t payload,
    const ProtocolOptions& options, double coverageThreshold) const {
  FailoverRun best;
  bool haveAny = false;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (!nets_[i]->contains(source)) continue;
    BroadcastRun run = runBroadcast(s, *nets_[i], source, payload, options);
    const bool better = !haveAny || run.coverage() > best.run.coverage();
    const double coverage = run.coverage();
    if (better) {
      best.run = std::move(run);
      best.replicaUsed = i;
    }
    haveAny = true;
    best.replicasTried = i + 1;
    if (coverage >= coverageThreshold) break;
  }
  DSN_REQUIRE(haveAny,
              "broadcastWithFailover: source is in no replica's net");
  return best;
}

std::string ReplicatedNetwork::validateAll() const {
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const auto report = ClusterNetValidator::validate(*nets_[i]);
    if (!report.ok())
      return "replica " + std::to_string(i) + ": " + report.summary();
  }
  return "";
}

}  // namespace dsn
