// node-move-out (paper Section 5.2 + DESIGN.md §4(3)(4)).
//
// Removing node `lev` splits CNet(G_old) into the subtree T rooted at lev
// and the remainder H (H is parent-closed, so it stays a valid cluster
// net). The operation:
//   Step 0  — height update along the root path (metered per hop; the
//             height follows from the per-depth node counts); relay-list
//             decrements for every departing group membership; Eulerian
//             "delete me" tour over T (metered).
//   Step 1/2— the nodes of T \ {lev} re-join H one by one through the
//             re-join sweep (moveInReachable), each once it has a
//             neighbor already inside the net. Nodes that lost all
//             connection to H are orphaned (left out of the net).
//   Repair  — boundary H receivers whose unique-slot provider departed
//             are re-validated and fixed via the Algorithm-3 repair; this
//             pass is required for Condition 1/2 to survive a departure
//             and is the step the paper omits (DESIGN.md §4).
// Root departure re-seeds the structure from the lowest surviving id.

#include <algorithm>
#include <unordered_set>

#include "cluster/cnet.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

std::vector<NodeId> ClusterNet::collectSubtree(NodeId top) const {
  requireInNet(top, "collectSubtree");
  std::vector<NodeId> order{top};
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (NodeId c : know_[order[i]].children) order.push_back(c);
  }
  return order;
}

void ClusterNet::detachNode(NodeId v) {
  NodeKnowledge& k = know_[v];
  DSN_CHECK(k.inNet, "detachNode: node not in net");
  if (isBackboneStatus(k.status)) --backboneCount_;
  if (k.parent != kInvalidNode && know_[k.parent].inNet) {
    auto& siblings = know_[k.parent].children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), v),
                   siblings.end());
  }
  --depthCount_[static_cast<std::size_t>(k.depth)];
  while (!depthCount_.empty() && depthCount_.back() == 0)
    depthCount_.pop_back();
  k.inNet = false;
  k.parent = kInvalidNode;
  k.children.clear();
  k.depth = kNoDepth;
  k.bSlot = kNoSlot;
  k.lSlot = kNoSlot;
  k.uSlot = kNoSlot;
  k.upSlot = kNoSlot;
  k.status = NodeStatus::kPureMember;
  k.relayCount.clear();
  // k.groups survives: a re-inserted node keeps its memberships.
  --netSize_;
}

namespace {

/// Shared telemetry for the two departure flavours.
void flushMoveOutMetrics(const char* op, const MoveOutReport& report) {
  if (!dsn::obs::enabled()) return;
  auto& m = dsn::obs::globalMetrics();
  m.counter(op).increment();
  m.counter("cluster.orphaned").increment(report.orphaned);
  m.counter("cluster.condition_repairs")
      .increment(report.conditionRepairs);
  m.histogram("cluster.move_out_subtree",
              dsn::obs::Histogram::exponentialBounds(12))
      .observe(static_cast<double>(report.subtreeSize));
}

}  // namespace

MoveOutReport ClusterNet::moveOut(NodeId lev) {
  requireInNet(lev, "moveOut");
  DSN_TIMED_PHASE("cnet.move_out");
  const MoveOutReport report = withdrawInner(lev);
  graph_.removeNode(lev);
  flushMoveOutMetrics("cluster.move_out", report);
  if (obs::enabled())
    obs::globalMetrics()
        .gauge("cluster.backbone_size")
        .set(static_cast<double>(backboneCount_));
  return report;
}

MoveOutReport ClusterNet::withdraw(NodeId lev) {
  requireInNet(lev, "withdraw");
  DSN_TIMED_PHASE("cnet.withdraw");
  const MoveOutReport report = withdrawInner(lev);
  flushMoveOutMetrics("cluster.withdraw", report);
  if (obs::enabled())
    obs::globalMetrics()
        .gauge("cluster.backbone_size")
        .set(static_cast<double>(backboneCount_));
  return report;
}

MoveOutReport ClusterNet::withdrawInner(NodeId lev) {
  if (lev == root_) return withdrawRoot();

  MoveOutReport report;
  const std::vector<NodeId> subtree = collectSubtree(lev);
  report.subtreeSize = subtree.size() - 1;  // T \ {lev}

  const RoundCost before = costs_;

  // Step 0(i): "I will leave" + height updates travel the root path.
  costs_.rootPath += know_[lev].depth;

  // Relay-list decrements for every group held inside the departing
  // subtree. The decrement path starts at lev's parent and stays inside H
  // (H is parent-closed), so a plain root-path walk is correct.
  const NodeId hParent = know_[lev].parent;
  for (NodeId t : subtree) {
    for (GroupId g : know_[t].groups) adjustRelayOnPath(hParent, g, -1);
  }

  // Step 0(ii): the "delete me and recalculate" Eulerian tour over T.
  costs_.eulerTour += eulerRounds(subtree.size());

  // Boundary H receivers that may have lost their unique-slot provider.
  std::unordered_set<NodeId> inT(subtree.begin(), subtree.end());
  std::vector<NodeId> boundary;
  for (NodeId t : subtree) {
    for (NodeId u : graph_.neighbors(t)) {
      if (!inT.count(u) && contains(u)) boundary.push_back(u);
    }
  }
  std::sort(boundary.begin(), boundary.end());
  boundary.erase(std::unique(boundary.begin(), boundary.end()),
                 boundary.end());

  // Detach T top-down. The leaver stays in the graph (the caller decides
  // whether to remove it); re-insertion ignores it because it is no
  // longer inNet.
  for (NodeId t : subtree) detachNode(t);
  chargeRootPath(hParent);

  // Steps 1 & 2: re-insert T \ {lev} via node-move-in, each node attaching
  // once it has a neighbor inside the net (the paper's tour visits them in
  // an order with the same property). The withdrawn node itself never
  // re-attaches here: it is excluded from `pending`.
  std::vector<NodeId> pending(subtree.begin() + 1, subtree.end());
  costs_.eulerTour += eulerRounds(pending.size() + 1);
  moveInReachable(pending);
  report.orphaned = pending.size();

  // Repair pass: re-validate every boundary receiver (plus re-inserted
  // nodes are already validated inside moveIn).
  for (NodeId v : boundary) {
    if (!contains(v)) continue;
    if (v == root_) continue;
    if (repairReceiver(v)) ++report.conditionRepairs;
  }

  report.cost = costs_ - before;
  return report;
}

MoveOutReport ClusterNet::withdrawRoot() {
  // The paper defers the root case to a full paper that never appeared;
  // we re-seed from the lowest surviving id and rebuild incrementally
  // (DESIGN.md §4(3)).
  MoveOutReport report;
  const RoundCost before = costs_;
  const NodeId oldRoot = root_;

  const std::vector<NodeId> subtree = collectSubtree(oldRoot);
  report.subtreeSize = subtree.size() - 1;
  costs_.eulerTour += eulerRounds(subtree.size());

  for (NodeId t : subtree) detachNode(t);
  root_ = kInvalidNode;
  rootMaxB_ = 0;
  rootMaxL_ = 0;
  rootMaxU_ = 0;
  rootMaxUp_ = 0;

  // The sweep seeds a fresh root from the lowest live id, then grows as
  // in the non-root case. A crashed member that recovery has not pruned
  // yet cannot be seeded; like every dead member it stays pending and
  // counts as orphaned.
  std::vector<NodeId> pending(subtree.begin() + 1, subtree.end());
  moveInReachable(pending);
  report.orphaned = pending.size();
  report.cost = costs_ - before;
  return report;
}

}  // namespace dsn
