// SensorNetwork — the library's top-level facade.
//
// Bundles a deployment (node positions), the flat unit-disk WSN graph,
// and the self-constructing / self-reconfiguring cluster architecture,
// and exposes the paper's operations as a cohesive API:
//
//   SensorNetwork net(NetworkConfig{.nodeCount = 300, .seed = 7});
//   auto run = net.broadcast(BroadcastScheme::kImprovedCff,
//                            net.randomNode(rng), 0xDA7A);
//   net.addSensor({120.0, 480.0});       // node-move-in
//   net.removeSensor(42);                // node-move-out
//
// The facade keeps the unit-disk index in sync so dynamic joins get their
// radio edges automatically.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "broadcast/reliable.hpp"
#include "broadcast/runner.hpp"
#include "cluster/backbone.hpp"
#include "cluster/cnet.hpp"
#include "cluster/recovery.hpp"
#include "cluster/validate.hpp"
#include "graph/deploy.hpp"
#include "graph/unit_disk.hpp"
#include "util/rng.hpp"

namespace dsn {

/// How the initial node positions are produced.
enum class DeploymentKind : std::uint8_t {
  kIncrementalAttach,  ///< default; connected by construction (paper)
  kUniform,            ///< i.i.d. uniform (may be disconnected)
  kGrid,
  kLine,
  kStar,
};

struct NetworkConfig {
  Field field = Field::squareUnits(10);  ///< paper: 10x10 units of 100 m
  double range = 50.0;                   ///< paper: 50 m
  std::size_t nodeCount = 0;
  std::uint64_t seed = 1;
  DeploymentKind deployment = DeploymentKind::kIncrementalAttach;
  ClusterNetConfig cluster;
  /// Run repairAfterFailures() automatically after every crashSensor().
  /// Off by default: batching several crashes into one repair pass is
  /// both cheaper and the realistic failure-detection cadence.
  bool autoRepair = false;
};

/// 64-bit fingerprint over every NetworkConfig field that shapes the
/// constructed SensorNetwork: field dimensions, range, node count, seed,
/// deployment kind, cluster policy knobs, and autoRepair. Two configs
/// with equal fingerprints build bit-identical networks (SplitMix64
/// chaining over the raw field bits; collisions are as likely as a
/// 64-bit hash collision). The warm-state serve cache keys on this.
/// The cluster `score` callback cannot be fingerprinted and MUST be
/// empty — callers that set one cannot share warm state.
std::uint64_t deploymentFingerprint(const NetworkConfig& config);

class SensorNetwork {
 public:
  /// Deploys `nodeCount` sensors and self-constructs the cluster net by
  /// moving nodes in one by one (in deployment order). With kUniform the
  /// structure covers the connected component of node 0; remaining nodes
  /// stay deployed but outside the net.
  explicit SensorNetwork(const NetworkConfig& config);

  /// Builds from explicit positions (inserted in vector order where
  /// attachable).
  SensorNetwork(std::vector<Point2D> points, double range,
                ClusterNetConfig clusterConfig = {});

  SensorNetwork(const SensorNetwork&) = delete;
  SensorNetwork& operator=(const SensorNetwork&) = delete;

  // ---- Dynamics (paper Section 5) ----

  /// Deploys a new sensor at `p`: allocates a node, wires its unit-disk
  /// edges, and move-ins it when it can reach the net. Returns the node
  /// id; `joined` (optional out) reports whether it entered the net.
  NodeId addSensor(const Point2D& p, bool* joined = nullptr);

  /// node-move-out + removal from the deployment.
  MoveOutReport removeSensor(NodeId v);

  /// Temporary withdrawal: leaves the structure (subtree re-homes) but
  /// stays deployed — the low-battery scenario of the paper's
  /// introduction. Re-enter with rejoinSensor().
  MoveOutReport withdrawSensor(NodeId v);

  /// Re-joins a deployed, withdrawn sensor where reachable; returns
  /// whether it entered the net.
  bool rejoinSensor(NodeId v);

  // ---- Crash faults & recovery (DESIGN.md §10) ----

  /// Uncooperative death: the sensor vanishes from the deployment and the
  /// graph *without* the move-out protocol running — the cluster
  /// structure keeps referencing it and goes stale (validate() fails)
  /// until repairAfterFailures() runs. With NetworkConfig::autoRepair the
  /// repair pass follows immediately.
  void crashSensor(NodeId v);

  /// True while the structure references crashed (graph-dead) nodes.
  bool hasStaleStructure() const {
    return RecoveryManager(*net_).hasStaleEntries();
  }

  /// Heartbeat-detect + prune + re-attach + slot-repair pass; afterwards
  /// validate() passes again. See RecoveryManager.
  RecoveryReport repairAfterFailures() {
    return RecoveryManager(*net_).repair();
  }

  /// Relocates a deployed sensor: withdraws it from the structure
  /// (its subtree re-homes), rewires its unit-disk edges for the new
  /// position, and re-joins it where possible. Returns whether the node
  /// is inside the net afterwards. This is the paper's "dynamic"
  /// scenario taken literally — a moving node is a move-out followed by
  /// a move-in at the new location.
  bool moveSensor(NodeId v, const Point2D& newPosition);

  /// Discards the cluster structure and re-runs self-construction over
  /// the current deployment (the re-join sweep, covering the component
  /// of the lowest live id). Group memberships are re-applied. Returns
  /// the round cost of the rebuild — the number the adaptive churn policy
  /// compares against accumulated incremental repair cost (Gavalas-style
  /// full re-cluster).
  RoundCost rebuildStructure();

  // ---- Communication ----

  BroadcastRun broadcast(BroadcastScheme scheme, NodeId source,
                         std::uint64_t payload,
                         const ProtocolOptions& options = {}) const;

  BroadcastRun multicast(NodeId source, GroupId group,
                         std::uint64_t payload,
                         MulticastMode mode = MulticastMode::kPrunedRelay,
                         const ProtocolOptions& options = {}) const;

  /// Reliable broadcast: the plain wave followed by NACK-driven repair
  /// rounds until every reachable node holds the payload or the retry
  /// budget is spent (DESIGN.md §10). Scheme must be a flooding scheme
  /// (CFF/iCFF), not the token tour.
  ReliableBroadcastRun reliableBroadcast(
      BroadcastScheme scheme, NodeId source, std::uint64_t payload,
      const ReliableOptions& options = {}) const;

  void joinGroup(NodeId v, GroupId g) { net_->joinGroup(v, g); }
  void leaveGroup(NodeId v, GroupId g) { net_->leaveGroup(v, g); }

  // ---- Introspection ----

  const Graph& graph() const { return *graph_; }
  const ClusterNet& clusterNet() const { return *net_; }
  ClusterNet& clusterNet() { return *net_; }
  const std::vector<Point2D>& initialPoints() const { return points_; }
  const Point2D& position(NodeId v) const { return index_.position(v); }
  const UnitDiskIndex& index() const { return index_; }
  double range() const { return range_; }
  std::size_t size() const { return net_->netSize(); }

  BackboneStats stats() const { return computeBackboneStats(*net_); }
  ValidationReport validate() const {
    return ClusterNetValidator::validate(*net_);
  }

  /// Uniformly random node currently in the net.
  NodeId randomNode(Rng& rng) const;

 private:
  std::vector<Point2D> points_;
  double range_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<ClusterNet> net_;
  UnitDiskIndex index_;
  bool autoRepair_ = false;

  void buildFromPoints(const ClusterNetConfig& clusterConfig);
  /// Copies `options`, filling nodePositions from the deployment when jam
  /// zones are present (or `force` — used for the distance-based arena
  /// rival) but positions were not supplied.
  ProtocolOptions withPositions(const ProtocolOptions& options,
                                bool force = false) const;
};

}  // namespace dsn
