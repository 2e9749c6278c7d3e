// Departures: node-move-out (paper Section 5.2 + DESIGN.md §4(3)(4)) and
// crash recovery (DESIGN.md §10), which is the move-out nobody announced.
//
// Removing node `lev` splits CNet(G_old) into the subtree T rooted at lev
// and the remainder H (H is parent-closed, so it stays a valid cluster
// net). The operation:
//   Step 0  — height update along the root path (metered per hop; the
//             height follows from the per-depth node counts); relay-list
//             decrements for every departing group membership; Eulerian
//             "delete me" tour over T (metered). detachSubtree runs it.
//   Step 1/2— the nodes of T \ {lev} re-join H one by one through the
//             re-join sweep (moveInReachable), each once it has a
//             neighbor already inside the net. Nodes that lost all
//             connection to H are orphaned (left out of the net).
//   Repair  — boundary H receivers whose unique-slot provider departed
//             are re-validated and fixed via the Algorithm-3 repair; this
//             pass is required for Condition 1/2 to survive a departure
//             and is the step the paper omits (DESIGN.md §4).
// Root departure detaches the whole net, and the sweep re-seeds it from
// the lowest surviving id.
//
// A crash gives no announcement: the dead node's record still says
// inNet, its parent still lists it as a child, and every slot condition
// that relied on it silently rots. recover() finds the damage with a
// slotted heartbeat sweep, runs Step 0 on every maximal subtree whose
// root path crosses a dead node, re-joins the live detached nodes and
// repairs every receiver: the dead nodes' graph edges went at crash time,
// so the boundary cannot be enumerated locally.

#include <algorithm>

#include "cluster/cnet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

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
  k.slots.fill(kNoSlot);
  k.status = NodeStatus::kPureMember;
  k.relayCount.clear();
  // k.groups survives: a re-inserted node keeps its memberships.
  --netSize_;
}

const std::vector<NodeId>& ClusterNet::detachSubtree(NodeId top) {
  subtree_.assign(1, top);
  for (std::size_t i = 0; i < subtree_.size(); ++i) {
    for (NodeId c : know_[subtree_[i]].children) subtree_.push_back(c);
  }
  // Relay-list decrements for every group held inside T, before any
  // record is wiped. The path starts at the parent and stays inside H
  // (H is parent-closed), so a plain root-path walk is correct.
  const NodeId parent = know_[top].parent;
  if (parent != kInvalidNode) {
    for (NodeId t : subtree_) {
      for (GroupId g : know_[t].groups) adjustRelayOnPath(parent, g, -1);
    }
  }
  // Step 0(ii): the "delete me and recalculate" Eulerian tour over T.
  costs_.eulerTour += eulerRounds(subtree_.size());
  for (NodeId t : subtree_) detachNode(t);
  if (parent != kInvalidNode) chargeRootPath(parent);
  return subtree_;
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

void flushRecoveryMetrics(const RecoveryReport& report) {
  if (!obs::enabled()) return;
  auto& m = obs::globalMetrics();
  m.counter("cluster.recovery.passes").increment();
  m.counter("cluster.recovery.stale_removed").increment(report.staleRemoved);
  m.counter("cluster.recovery.reattached").increment(report.reattached);
  m.counter("cluster.recovery.orphaned").increment(report.orphaned);
  m.counter("cluster.recovery.condition_repairs")
      .increment(report.conditionRepairs);
  if (report.rootReseeded) m.counter("cluster.recovery.root_reseeds").increment();
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
  MoveOutReport report;
  const RoundCost before = costs_;
  const bool isRoot = lev == root_;

  // Step 0(i): "I will leave" + height updates travel the root path.
  costs_.rootPath += know_[lev].depth;
  // Step 0 proper. The leaver stays in the graph (the caller decides
  // whether to remove it); re-insertion ignores it because it is no
  // longer inNet, and it is not pending.
  const std::vector<NodeId>& subtree = detachSubtree(lev);
  report.subtreeSize = subtree.size() - 1;  // T \ {lev}
  pending_.assign(subtree.begin() + 1, subtree.end());

  // Boundary H receivers that may have lost their unique-slot provider.
  // After the detach, contains() is false on T and true on H.
  boundary_.clear();
  for (NodeId t : subtree) {
    for (NodeId u : graph_.neighbors(t))
      if (contains(u)) boundary_.push_back(u);
  }
  std::sort(boundary_.begin(), boundary_.end());
  boundary_.erase(std::unique(boundary_.begin(), boundary_.end()),
                  boundary_.end());

  if (isRoot) {
    // The paper defers the root case to a full paper that never appeared;
    // the sweep re-seeds from the lowest surviving id and rebuilds
    // incrementally (DESIGN.md §4(3)).
    root_ = kInvalidNode;
    rootMax_.fill(0);
  } else {
    costs_.eulerTour += eulerRounds(pending_.size() + 1);
  }

  // Steps 1 & 2: re-insert T \ {lev} via node-move-in, each node attaching
  // once it has a neighbor inside the net (the paper's tour visits them in
  // an order with the same property). A crashed member that no repair has
  // pruned has no graph neighbors, so it stays pending and counts as
  // orphaned.
  moveInReachable(pending_);
  report.orphaned = pending_.size();

  // Repair pass: re-validate every boundary receiver (re-inserted nodes
  // are already validated inside moveIn). At the root it is empty.
  for (NodeId v : boundary_) {
    if (!contains(v) || v == root_) continue;
    if (repairReceiver(v)) ++report.conditionRepairs;
  }

  report.cost = costs_ - before;
  return report;
}

bool ClusterNet::hasStaleEntries() const {
  for (NodeId v = 0; v < know_.size(); ++v) {
    if (know_[v].inNet && !graph_.isAlive(v)) return true;
  }
  return false;
}

RecoveryReport ClusterNet::recover() {
  DSN_TIMED_PHASE("cnet.recovery");
  RecoveryReport report;
  const RoundCost before = costs_;

  // Detection: one beacon window (heads in their u-slots) plus one
  // response window (members in their up-slots), charged whether or not
  // anything is found dead. Uses the root's monotone window knowledge —
  // the windows actually scheduled on air.
  costs_.heartbeat += static_cast<std::int64_t>(rootMaxUSlot()) +
                      static_cast<std::int64_t>(rootMaxUpSlot());

  for (NodeId v = 0; v < know_.size(); ++v) {
    if (know_[v].inNet && !graph_.isAlive(v)) ++report.staleRemoved;
  }
  if (report.staleRemoved == 0) {
    report.cost = costs_ - before;
    flushRecoveryMetrics(report);
    return report;
  }

  const bool rootDead = root_ != kInvalidNode && !graph_.isAlive(root_);
  report.rootReseeded = rootDead;

  // Survivors = nodes reachable from a live root via children links over
  // alive nodes only. Parent-closed by construction, so what survives is
  // itself a valid cluster net. The BFS queues them in subtree_: they are
  // the live root's surviving subtree.
  survivor_.assign(know_.size(), 0);
  if (!rootDead && root_ != kInvalidNode) {
    subtree_.assign(1, root_);
    survivor_[root_] = 1;
    for (std::size_t i = 0; i < subtree_.size(); ++i) {
      for (NodeId c : know_[subtree_[i]].children) {
        if (graph_.isAlive(c)) {
          survivor_[c] = 1;
          subtree_.push_back(c);
        }
      }
    }
  }

  // Everything else in the net is a union of maximal subtrees whose tops
  // hang off survivors (or the whole net, when the root died). Each goes
  // through move-out's Step 0; its live nodes wait to re-join.
  pending_.clear();
  for (NodeId v = 0; v < know_.size(); ++v) {
    const NodeKnowledge& k = know_[v];
    if (!k.inNet || survivor_[v]) continue;
    if (k.parent != kInvalidNode && !survivor_[k.parent]) continue;
    for (NodeId t : detachSubtree(v))
      if (graph_.isAlive(t)) pending_.push_back(t);
  }

  if (rootDead) {
    root_ = kInvalidNode;
    rootMax_.fill(0);
  }

  // Move-out Steps 1/2, in ascending id. A dead root re-seeds from the
  // lowest surviving id (DESIGN.md §4(3)).
  std::sort(pending_.begin(), pending_.end());
  report.reattached = moveInReachable(pending_);
  report.orphaned = pending_.size();

  // Slot repair over every surviving receiver. Up-conditions are
  // pairwise-difference based and only improve on removal; b/l/u
  // conditions are uniqueness-based and can break, which repairReceiver
  // fixes.
  for (NodeId v = 0; v < know_.size(); ++v) {
    if (!know_[v].inNet || v == root_) continue;
    if (repairReceiver(v)) ++report.conditionRepairs;
  }

  report.cost = costs_ - before;
  if (obs::FlightRecorder* fr = obs::recorderFor<obs::kFrCatCluster>())
    fr->record(obs::makeFrEvent(
        obs::FrType::kRepair, 0,
        static_cast<std::uint32_t>(report.staleRemoved),
        static_cast<std::uint32_t>(report.reattached), 0,
        static_cast<std::uint16_t>(
            std::min<std::size_t>(report.orphaned, 65535))));
  flushRecoveryMetrics(report);
  if (obs::enabled())
    obs::globalMetrics()
        .gauge("cluster.backbone_size")
        .set(static_cast<double>(backboneCount_));
  return report;
}

}  // namespace dsn
