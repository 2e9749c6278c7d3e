// Multi-sink replication (paper Section 2): several cluster-nets over
// one deployment, rooted at well-separated sinks, "so that if one
// cluster-net fails others can still be used".
//
// All replicas share the flat unit-disk graph; structural dynamics
// (join/leave) are applied to every replica. A broadcast can be steered
// through any replica, and `broadcastWithFailover` walks the replicas in
// order until one delivers above a threshold — modelling a sink that
// re-issues the message through a surviving structure.
#pragma once

#include <memory>
#include <vector>

#include "broadcast/runner.hpp"
#include "cluster/cnet.hpp"
#include "cluster/validate.hpp"
#include "graph/unit_disk.hpp"
#include "util/geometry.hpp"

namespace dsn {

struct ReplicatedConfig {
  std::size_t replicaCount = 2;
  ClusterNetConfig cluster;
};

/// Outcome of a failover broadcast: the run plus which replica served it.
struct FailoverRun {
  BroadcastRun run;
  std::size_t replicaUsed = 0;
  std::size_t replicasTried = 0;
};

class ReplicatedNetwork {
 public:
  /// Builds `replicaCount` cluster-nets over the unit-disk graph of
  /// `points`. Replica 0 is rooted at node 0; later roots are chosen by
  /// farthest-point spreading, and each replica is constructed in BFS
  /// (gossip) order from its root.
  ReplicatedNetwork(std::vector<Point2D> points, double range,
                    ReplicatedConfig config = {});

  ReplicatedNetwork(const ReplicatedNetwork&) = delete;
  ReplicatedNetwork& operator=(const ReplicatedNetwork&) = delete;

  std::size_t replicaCount() const { return nets_.size(); }
  const ClusterNet& replica(std::size_t i) const { return *nets_.at(i); }
  ClusterNet& replica(std::size_t i) { return *nets_.at(i); }
  const Graph& graph() const { return *graph_; }

  /// Adds a sensor at `p` and joins it into every replica it can reach.
  NodeId addSensor(const Point2D& p);

  /// Withdraws `v` from every replica containing it, then removes it
  /// from the shared graph.
  void removeSensor(NodeId v);

  /// Broadcast via a specific replica.
  BroadcastRun broadcastVia(std::size_t replicaIndex, BroadcastScheme s,
                            NodeId source, std::uint64_t payload,
                            const ProtocolOptions& options = {}) const;

  /// Tries replicas in order (skipping any whose structure no longer
  /// contains the source) until one reaches at least
  /// `coverageThreshold`; returns the successful (or best) run.
  FailoverRun broadcastWithFailover(BroadcastScheme s, NodeId source,
                                    std::uint64_t payload,
                                    const ProtocolOptions& options = {},
                                    double coverageThreshold = 0.999) const;

  /// Validates every replica; returns the first failure (or empty).
  std::string validateAll() const;

 private:
  std::unique_ptr<Graph> graph_;
  UnitDiskIndex index_;
  /// addSensor's query buffer.
  std::vector<NodeId> nearby_;
  std::vector<std::unique_ptr<ClusterNet>> nets_;
};

}  // namespace dsn
