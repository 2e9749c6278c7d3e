#include "cluster/recovery.hpp"

#include <algorithm>
#include <unordered_set>

#include "cluster/cnet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

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

bool RecoveryManager::hasStaleEntries() const {
  const ClusterNet& net = net_;
  for (NodeId v = 0; v < net.know_.size(); ++v) {
    if (net.know_[v].inNet && !net.graph_.isAlive(v)) return true;
  }
  return false;
}

std::vector<NodeId> RecoveryManager::staleEntries() const {
  const ClusterNet& net = net_;
  std::vector<NodeId> stale;
  for (NodeId v = 0; v < net.know_.size(); ++v) {
    if (net.know_[v].inNet && !net.graph_.isAlive(v)) stale.push_back(v);
  }
  return stale;
}

void RecoveryManager::chargeHeartbeat() {
  // One beacon window (heads in their u-slots) plus one response window
  // (members in their up-slots). Uses the root's monotone window
  // knowledge — the windows actually scheduled on air.
  net_.costs_.heartbeat += static_cast<std::int64_t>(net_.rootMaxU_) +
                           static_cast<std::int64_t>(net_.rootMaxUp_);
}

RecoveryReport RecoveryManager::repair() {
  DSN_TIMED_PHASE("cnet.recovery");
  ClusterNet& net = net_;
  RecoveryReport report;
  const RoundCost before = net.costs_;

  chargeHeartbeat();

  const std::vector<NodeId> stale = staleEntries();
  report.staleRemoved = stale.size();
  if (stale.empty()) {
    report.cost = net.costs_ - before;
    flushRecoveryMetrics(report);
    return report;
  }

  const bool rootDead = net.root_ != kInvalidNode &&
                        !net.graph_.isAlive(net.root_);
  report.rootReseeded = rootDead;

  // Survivors = nodes reachable from a live root via children links over
  // alive nodes only. Parent-closed by construction, so what survives is
  // itself a valid cluster net.
  std::unordered_set<NodeId> attached;
  if (!rootDead && net.root_ != kInvalidNode) {
    std::vector<NodeId> frontier{net.root_};
    attached.insert(net.root_);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      for (NodeId c : net.know_[frontier[i]].children) {
        if (net.graph_.isAlive(c)) {
          attached.insert(c);
          frontier.push_back(c);
        }
      }
    }
  }

  // The detach set D = everything in the net but not attached; D is a
  // union of maximal subtrees whose tops hang off surviving parents (or
  // off dead ancestors, or is the whole net when the root died).
  std::vector<NodeId> tops;
  for (NodeId v = 0; v < net.know_.size(); ++v) {
    const NodeKnowledge& k = net.know_[v];
    if (!k.inNet || attached.count(v)) continue;
    if (k.parent == kInvalidNode || attached.count(k.parent))
      tops.push_back(v);
  }
  std::sort(tops.begin(), tops.end());

  std::vector<NodeId> pending;  // alive detached nodes, re-attach later
  for (NodeId top : tops) {
    const std::vector<NodeId> subtree = net.collectSubtree(top);
    const NodeId hParent = net.know_[top].parent;

    // Move-out Step 0: relay-list decrements on the surviving root path,
    // before any record is wiped (the walk needs intact parent links).
    if (hParent != kInvalidNode && attached.count(hParent)) {
      for (NodeId t : subtree) {
        for (GroupId g : net.know_[t].groups)
          net.adjustRelayOnPath(hParent, g, -1);
      }
    }

    // The heartbeat sweep localizes the damage; the "recalculate" tour
    // over each detached subtree is metered as in move-out Step 0(ii).
    net.costs_.eulerTour += eulerRounds(subtree.size());

    for (NodeId t : subtree) {
      net.detachNode(t);
      if (net.graph_.isAlive(t)) pending.push_back(t);
    }
    if (hParent != kInvalidNode && attached.count(hParent))
      net.chargeRootPath(hParent);
  }

  if (rootDead) {
    net.root_ = kInvalidNode;
    net.rootMaxB_ = 0;
    net.rootMaxL_ = 0;
    net.rootMaxU_ = 0;
    net.rootMaxUp_ = 0;
  }

  // Move-out Steps 1/2: survivors re-join one by one through the re-join
  // sweep, each attaching once it has a neighbor inside the net. A dead
  // root re-seeds from the lowest surviving id (DESIGN.md §4(3)).
  std::sort(pending.begin(), pending.end());
  report.reattached = net.moveInReachable(pending);
  report.orphaned = pending.size();

  // Slot repair: the dead nodes' graph edges vanished with removeNode, so
  // the affected boundary cannot be enumerated locally — re-validate every
  // surviving receiver instead. Up-conditions are pairwise-difference
  // based and only improve on removal; b/l/u-conditions are
  // uniqueness-based and can break, which repairReceiver fixes.
  for (NodeId v : net.netNodes()) {
    if (v == net.root_) continue;
    if (net.repairReceiver(v)) ++report.conditionRepairs;
  }

  report.cost = net.costs_ - before;
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
        .set(static_cast<double>(net.backboneCount()));
  return report;
}

}  // namespace dsn
