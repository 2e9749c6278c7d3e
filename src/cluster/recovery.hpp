// Crash-fault recovery for CNet(G) (DESIGN.md §10).
//
// The paper's node-move-out assumes a *cooperative* departure: the leaver
// announces itself and the structure is patched on the way out. A crash
// gives no such announcement — the dead node's knowledge record still
// says inNet, its parent still lists it as a child, and every slot
// condition that relied on it silently rots. RecoveryManager closes that
// gap:
//
//   1. Detection — a slotted heartbeat sweep on the backbone: heads
//      beacon in their u-slot window, members answer in their up-slot
//      window. Costed through RoundCost::heartbeat whether or not
//      anything is found dead (detection is not free just because
//      everyone is alive).
//   2. Pruning — every stale entry (inNet but dead in the graph) and
//      every node whose root path crosses a stale entry is detached.
//      The set of survivors is parent-closed, so what remains is a valid
//      (smaller) cluster net. Relay lists of surviving ancestors are
//      decremented first, exactly as in move-out Step 0.
//   3. Re-attachment — orphaned-but-alive subtree nodes re-join through
//      the ordinary move-in attachment rules (the same re-join sweep as
//      move-out Steps 1/2, ClusterNet::moveInReachable). Nodes with no surviving net neighbor stay
//      out ("orphaned"). A dead root re-seeds from the lowest surviving
//      id, as in DESIGN.md §4(3).
//   4. Slot repair — a global receiver-condition sweep. Unlike move-out,
//      the dead nodes' graph edges are already gone (Graph::removeNode
//      dropped them at crash time), so the affected boundary cannot be
//      enumerated locally; every surviving receiver is re-validated via
//      the Algorithm-3 repair instead.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/round_cost.hpp"
#include "util/types.hpp"

namespace dsn {

class ClusterNet;

/// Outcome of one repair pass (Theorem-3-style bookkeeping).
struct RecoveryReport {
  /// Stale entries pruned (nodes dead in the graph but still in the net).
  std::size_t staleRemoved = 0;
  /// Alive nodes that were detached (their root path crossed a stale
  /// entry) and re-attached through move-in.
  std::size_t reattached = 0;
  /// Alive detached nodes with no surviving net neighbor; they stay out
  /// of the structure (they may re-join later via moveIn).
  std::size_t orphaned = 0;
  /// Receivers whose slot condition needed the Algorithm-3 repair.
  std::size_t conditionRepairs = 0;
  /// The root itself was dead and the structure was re-seeded.
  bool rootReseeded = false;
  /// Rounds consumed by this pass alone (heartbeat + repair work).
  RoundCost cost;

  bool anyDamage() const { return staleRemoved > 0; }
};

/// Detects and repairs crash damage in a ClusterNet. Stateless between
/// calls; borrow-constructed on demand.
class RecoveryManager {
 public:
  explicit RecoveryManager(ClusterNet& net) : net_(net) {}

  /// True when some net entry refers to a node that is dead in the graph
  /// (structure is stale; validate() would fail). Read-only.
  bool hasStaleEntries() const;

  /// Ids of stale entries, ascending (empty when the structure is clean).
  std::vector<NodeId> staleEntries() const;

  /// One full heartbeat-detect + prune + re-attach + slot-repair pass.
  /// Afterwards the net contains only alive nodes and every validate()
  /// invariant holds again. Idempotent: a second call on a clean
  /// structure only charges the heartbeat sweep.
  RecoveryReport repair();

 private:
  ClusterNet& net_;

  void chargeHeartbeat();
};

}  // namespace dsn
