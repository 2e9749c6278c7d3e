// node-move-in (paper Definition 1 + Section 5.1).
//
// Inserting node `new` with net-neighbor set U:
//   (a) U contains cluster-heads  -> new becomes a pure-member of one;
//   (b) else U contains gateways  -> new becomes a head under one;
//   (c) else (only pure-members)  -> the chosen member is *promoted* to
//       gateway and new becomes a head under it.
// Afterwards: Algorithm 3 restores the time-slot conditions, the depth of
// new is parent+1, the height update travels the root path (metered per
// hop; the height itself follows from the per-depth node counts), and the
// largest revised slots travel to the root (Theorem 2(2): +2h + 2d + D
// rounds).

#include <algorithm>

#include "cluster/cnet.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

NodeId ClusterNet::moveIn(NodeId v) {
  ensureKnowledgeSize();
  DSN_REQUIRE(graph_.isAlive(v), "moveIn: node must be live in the graph");
  DSN_REQUIRE(!contains(v), "moveIn: node already in the cluster net");
  DSN_TIMED_PHASE("cnet.move_in");
  if (obs::enabled())
    obs::globalMetrics().counter("cluster.move_in").increment();

  NodeKnowledge& kv = mutableKnowledge(v);

  // First node: becomes the root and a cluster-head (Definition 1(1)).
  if (root_ == kInvalidNode) {
    auto groups = std::move(kv.groups);  // survive re-seeding (move-out)
    kv = NodeKnowledge{};
    kv.groups = std::move(groups);
    kv.inNet = true;
    kv.status = NodeStatus::kClusterHead;
    kv.parent = kInvalidNode;
    kv.depth = 0;
    root_ = v;
    ++netSize_;
    depthCount_.assign(1, 1);
    ++backboneCount_;
    if (obs::enabled())
      obs::globalMetrics().gauge("cluster.backbone_size").set(1.0);
    return kInvalidNode;
  }

  const std::vector<NodeId> candidates = netNeighbors(v);
  DSN_REQUIRE(!candidates.empty(),
              "moveIn: node has no neighbor inside the cluster net");

  // Attachment from [19] runs in O(d_new) expected rounds; we charge
  // exactly the degree of the joining node (DESIGN.md §2).
  costs_.attach += static_cast<std::int64_t>(graph_.degree(v));

  // Partition U by status and apply the Definition-1 priority.
  std::vector<NodeId> heads;
  std::vector<NodeId> gateways;
  std::vector<NodeId> members;
  for (NodeId u : candidates) {
    switch (know_[u].status) {
      case NodeStatus::kClusterHead:
        heads.push_back(u);
        break;
      case NodeStatus::kGateway:
        gateways.push_back(u);
        break;
      case NodeStatus::kPureMember:
        members.push_back(u);
        break;
    }
  }

  NodeId w = kInvalidNode;
  if (!heads.empty()) {
    w = selectCandidate(heads);
    kv.status = NodeStatus::kPureMember;
  } else if (!gateways.empty()) {
    w = selectCandidate(gateways);
    kv.status = NodeStatus::kClusterHead;
    ++backboneCount_;
  } else {
    w = selectCandidate(members);
    // Promotion: the only status mutation Definition 1 permits.
    know_[w].status = NodeStatus::kGateway;
    kv.status = NodeStatus::kClusterHead;
    backboneCount_ += 2;
    if (obs::enabled())
      obs::globalMetrics().counter("cluster.promotions").increment();
  }

  kv.inNet = true;
  kv.parent = w;
  kv.depth = know_[w].depth + 1;
  kv.bSlot = kNoSlot;
  kv.lSlot = kNoSlot;
  kv.uSlot = kNoSlot;
  kv.children.clear();
  kv.relayCount.clear();
  know_[w].children.push_back(v);
  ++netSize_;

  // Degrees only grow through insertions, and only at the new node and
  // its neighbors — this keeps peakDegree() an exact historical maximum.
  peakDegree_ = std::max(peakDegree_, graph_.degree(v));
  for (NodeId u : graph_.neighbors(v))
    peakDegree_ = std::max(peakDegree_, graph_.degree(u));

  // Knowledge (II) upkeep — Algorithm 3 (slot revisions report their new
  // values to the root from inside the procedures) + the root-path height
  // update. The slot reports charge the height from before this insert,
  // so v's depth is counted only after them.
  updateTimeSlotsForInsert(v);
  assignUpSlot(v);
  chargeRootPath(w);
  const auto d = static_cast<std::size_t>(kv.depth);
  if (depthCount_.size() == d) depthCount_.push_back(0);
  ++depthCount_[d];

  // Multicast: if v carries groups already (re-insertion during
  // move-out), push them up the new root path.
  for (GroupId g : kv.groups) adjustRelayOnPath(w, g, +1);

  if (obs::enabled())
    obs::globalMetrics()
        .gauge("cluster.backbone_size")
        .set(static_cast<double>(backboneCount_));
  return w;
}

}  // namespace dsn
