// Incremental time-slot assignment (paper Section 4).
//
// Three slot families are maintained, one per flood phase:
//  * u-slots — Algorithm 1 floods the whole CNet depth by depth, so in
//    the window a node listens only previous-depth internal (= backbone)
//    nodes transmit. Time-Slot Condition 1 applies to every non-root
//    node.
//  * b-slots — Algorithm 2 step 1 floods only the backbone; receivers
//    are backbone nodes, interferers their previous-depth backbone
//    neighbors.
//  * l-slots — Algorithm 2 step 2 delivers to leaves in ONE shared
//    window where every slotted backbone node transmits. Under
//    SlotPolicy::kStrict a pure-member's interferers are ALL its backbone
//    neighbors; under kPaperLocal only the previous-depth ones (the
//    literal Time-Slot Condition 2, kept for the ablation bench — see
//    DESIGN.md §4(1)).
//
// A receiver's condition holds when some interferer's slot is *unique*
// within the interferer set — that transmitter gets through. Slots are
// assigned lazily and only ever changed through Procedure 1
// (calculateXTimeSlot), which consults every listener constrained by the
// changing node and picks the minimum positive slot that keeps each tight
// listener deliverable; this preserves all conditions inductively.

#include <algorithm>

#include "cluster/cnet.hpp"
#include "obs/flight.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// Flight-recorder slot-recompute marker. `kind`: 0 = B, 1 = L, 2 = U,
/// 3 = up (matches the FrType::kSlotRecompute aux contract). Slot
/// assignments are rare relative to radio traffic, so they are recorded
/// whenever the cluster category is live, independent of round sampling.
void recordSlotRecompute(NodeId y, TimeSlot slot, std::uint16_t kind) {
  if (obs::FlightRecorder* fr = obs::recorderFor<obs::kFrCatCluster>())
    fr->record(obs::makeFrEvent(obs::FrType::kSlotRecompute, 0, y,
                                static_cast<std::uint32_t>(slot), 0, kind));
}

/// Number of values occurring exactly once in `slots`. (The callers only
/// ever need the count, so no ordered set is materialized — sort the
/// local copy and count singleton runs.)
std::size_t uniqueValueCount(std::vector<TimeSlot> slots) {
  std::sort(slots.begin(), slots.end());
  std::size_t unique = 0;
  for (std::size_t i = 0; i < slots.size();) {
    std::size_t j = i + 1;
    while (j < slots.size() && slots[j] == slots[i]) ++j;
    if (j - i == 1) ++unique;
    i = j;
  }
  return unique;
}

/// Smallest positive integer not contained in `taken` (duplicates fine).
TimeSlot minimumFreeSlot(std::vector<TimeSlot> taken) {
  std::sort(taken.begin(), taken.end());
  TimeSlot candidate = 1;
  for (TimeSlot t : taken) {
    if (t < candidate) continue;
    if (t == candidate)
      ++candidate;
    else
      break;
  }
  return candidate;
}

}  // namespace

// ---- Interferer sets (who transmits while v listens) ----

std::vector<NodeId> ClusterNet::bInterferers(NodeId v) const {
  requireInNet(v, "bInterferers");
  std::vector<NodeId> out;
  const Depth d = know_[v].depth;
  for (NodeId u : adj(v)) {
    if (!contains(u)) continue;
    if (isBackboneStatus(know_[u].status) && know_[u].depth == d - 1)
      out.push_back(u);
  }
  return out;
}

std::vector<NodeId> ClusterNet::uInterferers(NodeId v) const {
  // Same node set as bInterferers (previous-depth backbone neighbors);
  // evaluated over u-slots by the callers.
  return bInterferers(v);
}

std::vector<NodeId> ClusterNet::lInterferers(NodeId v) const {
  requireInNet(v, "lInterferers");
  std::vector<NodeId> out;
  const Depth d = know_[v].depth;
  for (NodeId u : adj(v)) {
    if (!contains(u)) continue;
    if (!isBackboneStatus(know_[u].status)) continue;
    if (config_.slotPolicy == SlotPolicy::kStrict ||
        know_[u].depth == d - 1)
      out.push_back(u);
  }
  return out;
}

// ---- Constrained listener sets (who y must keep deliverable) ----

std::vector<NodeId> ClusterNet::bConstrainedListeners(NodeId y) const {
  requireInNet(y, "bConstrainedListeners");
  std::vector<NodeId> out;
  const Depth d = know_[y].depth;
  for (NodeId u : adj(y)) {
    if (!contains(u)) continue;
    if (isBackboneStatus(know_[u].status) && know_[u].depth == d + 1)
      out.push_back(u);
  }
  return out;
}

std::vector<NodeId> ClusterNet::lConstrainedListeners(NodeId y) const {
  requireInNet(y, "lConstrainedListeners");
  std::vector<NodeId> out;
  const Depth d = know_[y].depth;
  for (NodeId u : adj(y)) {
    if (!contains(u)) continue;
    if (know_[u].status != NodeStatus::kPureMember) continue;
    if (config_.slotPolicy == SlotPolicy::kStrict ||
        know_[u].depth == d + 1)
      out.push_back(u);
  }
  return out;
}

std::vector<NodeId> ClusterNet::uConstrainedListeners(NodeId y) const {
  requireInNet(y, "uConstrainedListeners");
  std::vector<NodeId> out;
  const Depth d = know_[y].depth;
  for (NodeId u : adj(y)) {
    if (contains(u) && know_[u].depth == d + 1) out.push_back(u);
  }
  return out;
}

std::vector<TimeSlot> ClusterNet::slotsOf(const std::vector<NodeId>& nodes,
                                          SlotKind kind,
                                          NodeId except) const {
  std::vector<TimeSlot> out;
  out.reserve(nodes.size());
  for (NodeId u : nodes) {
    if (u == except) continue;
    TimeSlot s = kNoSlot;
    switch (kind) {
      case SlotKind::kB:
        s = know_[u].bSlot;
        break;
      case SlotKind::kL:
        s = know_[u].lSlot;
        break;
      case SlotKind::kU:
        s = know_[u].uSlot;
        break;
    }
    if (s != kNoSlot) out.push_back(s);
  }
  return out;
}

// ---- Conditions ----

bool ClusterNet::bConditionHolds(NodeId v) const {
  requireInNet(v, "bConditionHolds");
  DSN_REQUIRE(isBackboneStatus(know_[v].status) && know_[v].depth > 0,
              "bConditionHolds: needs a non-root backbone node");
  return uniqueValueCount(
             slotsOf(bInterferers(v), SlotKind::kB, kInvalidNode)) > 0;
}

bool ClusterNet::lConditionHolds(NodeId v) const {
  requireInNet(v, "lConditionHolds");
  DSN_REQUIRE(know_[v].status == NodeStatus::kPureMember,
              "lConditionHolds: needs a pure member");
  return uniqueValueCount(
             slotsOf(lInterferers(v), SlotKind::kL, kInvalidNode)) > 0;
}

bool ClusterNet::uConditionHolds(NodeId v) const {
  requireInNet(v, "uConditionHolds");
  DSN_REQUIRE(know_[v].depth > 0,
              "uConditionHolds: the root does not receive");
  return uniqueValueCount(
             slotsOf(uInterferers(v), SlotKind::kU, kInvalidNode)) > 0;
}

// ---- Procedure 1 (paper Section 4) ----

void ClusterNet::calculateBTimeSlot(NodeId y) {
  requireInNet(y, "calculateBTimeSlot");
  DSN_REQUIRE(isBackboneStatus(know_[y].status),
              "calculateBTimeSlot: only backbone nodes carry b-slots");

  const std::vector<NodeId> listeners = bConstrainedListeners(y);
  // Procedure 1(i): one round for y's request, then each listener answers
  // in turn (Lemma 2(1): 1 + |C(y)| rounds).
  costs_.slotUpdate += 1 + static_cast<std::int64_t>(listeners.size());

  std::vector<TimeSlot> forbidden;
  for (NodeId v : listeners) {
    const auto slots = slotsOf(bInterferers(v), SlotKind::kB, y);
    if (uniqueValueCount(slots) >= 2) continue;  // v safe regardless
    forbidden.insert(forbidden.end(), slots.begin(), slots.end());
  }
  know_[y].bSlot = minimumFreeSlot(forbidden);
  recordSlotRecompute(y, know_[y].bSlot, 0);
  reportSlotToRoot(know_[y].bSlot, 0, 0);
}

void ClusterNet::calculateLTimeSlot(NodeId y) {
  requireInNet(y, "calculateLTimeSlot");
  DSN_REQUIRE(isBackboneStatus(know_[y].status),
              "calculateLTimeSlot: only backbone nodes carry l-slots");

  const std::vector<NodeId> listeners = lConstrainedListeners(y);
  costs_.slotUpdate += 1 + static_cast<std::int64_t>(listeners.size());

  std::vector<TimeSlot> forbidden;
  for (NodeId v : listeners) {
    const auto slots = slotsOf(lInterferers(v), SlotKind::kL, y);
    if (uniqueValueCount(slots) >= 2) continue;
    forbidden.insert(forbidden.end(), slots.begin(), slots.end());
  }
  know_[y].lSlot = minimumFreeSlot(forbidden);
  recordSlotRecompute(y, know_[y].lSlot, 1);
  reportSlotToRoot(0, know_[y].lSlot, 0);
}

void ClusterNet::calculateUTimeSlot(NodeId y) {
  requireInNet(y, "calculateUTimeSlot");
  DSN_REQUIRE(isBackboneStatus(know_[y].status),
              "calculateUTimeSlot: only internal nodes carry u-slots");

  const std::vector<NodeId> listeners = uConstrainedListeners(y);
  costs_.slotUpdate += 1 + static_cast<std::int64_t>(listeners.size());

  std::vector<TimeSlot> forbidden;
  for (NodeId v : listeners) {
    const auto slots = slotsOf(uInterferers(v), SlotKind::kU, y);
    if (uniqueValueCount(slots) >= 2) continue;
    forbidden.insert(forbidden.end(), slots.begin(), slots.end());
  }
  know_[y].uSlot = minimumFreeSlot(forbidden);
  recordSlotRecompute(y, know_[y].uSlot, 2);
  reportSlotToRoot(0, 0, know_[y].uSlot);
}

// ---- Convergecast up-slots (dsnet extension, DESIGN.md §6) ----

bool ClusterNet::upConditionHolds(NodeId v) const {
  // What convergecast correctness needs: v's PARENT can hear v — no
  // other same-depth net-neighbor of the parent shares v's up-slot.
  // (assignUpSlot guards the stronger property over every potential
  // previous-depth listener, giving slack for later re-parenting, but
  // only the parent edge is load-bearing.)
  requireInNet(v, "upConditionHolds");
  DSN_REQUIRE(v != root_, "the root reports to no one");
  const TimeSlot mine = know_[v].upSlot;
  if (mine == kNoSlot) return false;
  const Depth d = know_[v].depth;
  const NodeId p = know_[v].parent;
  for (NodeId u : adj(p)) {
    if (u == v || !contains(u)) continue;
    if (know_[u].depth == d && know_[u].upSlot == mine) return false;
  }
  return true;
}

void ClusterNet::assignUpSlot(NodeId v) {
  // Forbidden set: up-slots of every same-depth node that shares a
  // previous-depth neighbor with v — then every potential listener can
  // separate v from all other transmitters in its gather window.
  const Depth d = know_[v].depth;
  std::vector<TimeSlot> forbidden;
  std::int64_t listeners = 0;
  for (NodeId q : adj(v)) {
    if (!contains(q) || know_[q].depth != d - 1) continue;
    ++listeners;
    for (NodeId u : adj(q)) {
      if (u == v || !contains(u)) continue;
      if (know_[u].depth == d && know_[u].upSlot != kNoSlot)
        forbidden.push_back(know_[u].upSlot);
    }
  }
  costs_.slotUpdate += 1 + listeners;
  know_[v].upSlot = minimumFreeSlot(forbidden);
  recordSlotRecompute(v, know_[v].upSlot, 3);
  if (know_[v].upSlot > rootMaxUp_) {
    rootMaxUp_ = know_[v].upSlot;
    costs_.rootPath += root_ != kInvalidNode ? know_[root_].height : 0;
  }
}

// ---- Algorithm 3 (insertion repair) ----

bool ClusterNet::repairReceiver(NodeId v) {
  requireInNet(v, "repairReceiver");
  if (v == root_) return false;

  const NodeId w = know_[v].parent;
  // Procedure 1 repairs v by recalculating the slot of v's PARENT, whose
  // forbidden set ranges over its current graph neighbors — so the
  // repair-restores-the-condition theorem (DSN_CHECK below) holds only
  // while the tree edge is a live radio edge. On a stale structure (the
  // parent crashed, §10) no local repair can succeed; the recovery pass
  // that must follow will detach and re-home v, rebuilding its
  // conditions through a fresh insertion. This arises in practice when a
  // join lands between a crash and the batched repair of the same churn
  // tick and promotes a member whose own parent is the dead node.
  if (!graph_.hasEdge(v, w)) return false;
  bool repaired = false;

  if (know_[v].status == NodeStatus::kPureMember) {
    if (!lConditionHolds(v)) {
      calculateLTimeSlot(w);
      DSN_CHECK(lConditionHolds(v),
                "parent l-slot recalculation failed to restore Condition 2");
      repaired = true;
    }
  } else {
    if (!bConditionHolds(v)) {
      calculateBTimeSlot(w);
      DSN_CHECK(bConditionHolds(v),
                "parent b-slot recalculation failed to restore Condition 1");
      repaired = true;
    }
  }

  // Algorithm-1 slot space: every non-root node is a u-receiver.
  if (!uConditionHolds(v)) {
    calculateUTimeSlot(w);
    DSN_CHECK(uConditionHolds(v),
              "parent u-slot recalculation failed to restore Condition 1");
    repaired = true;
  }
  return repaired;
}

void ClusterNet::restoreReceiverConditions(NodeId v) {
  repairReceiver(v);
}

std::int64_t ClusterNet::compactSlots() {
  if (root_ == kInvalidNode) return 0;
  const RoundCost before = costs_;
  // One O(V+E) snapshot up front; every adj() below then iterates the
  // flat CSR arrays instead of per-node vectors for the whole pass.
  graph_.csrView();

  // Wipe every slot and the root's window knowledge, then re-derive in
  // BFS order: each node's delivery conditions are restored exactly as a
  // fresh insertion would (Algorithm 3), which by construction picks
  // minimum free slots.
  std::vector<NodeId> order{root_};
  for (std::size_t i = 0; i < order.size(); ++i)
    for (NodeId c : know_[order[i]].children) order.push_back(c);

  for (NodeId v : order) {
    know_[v].bSlot = kNoSlot;
    know_[v].lSlot = kNoSlot;
    know_[v].uSlot = kNoSlot;
    know_[v].upSlot = kNoSlot;
  }
  rootMaxB_ = 0;
  rootMaxL_ = 0;
  rootMaxU_ = 0;
  rootMaxUp_ = 0;

  for (NodeId v : order) {
    if (v == root_) continue;
    restoreReceiverConditions(v);
    assignUpSlot(v);
  }
  // Conditions of already-processed nodes cannot have been broken: every
  // assignment went through the listener-consulting procedures.
  return (costs_ - before).total();
}

void ClusterNet::updateTimeSlotsForInsert(NodeId v) {
  // Algorithm 3: the fresh leaf checks its own delivery conditions and,
  // where violated, its parent recalculates the relevant slot. When the
  // attachment promoted the parent (pure-member -> gateway, Definition 1
  // rule (c)), the parent became a backbone-flood receiver itself and its
  // own condition is restored the same way.
  repairReceiver(v);
  const NodeId w = know_[v].parent;
  if (w != root_ && know_[w].status == NodeStatus::kGateway &&
      know_[w].children.size() == 1) {
    // Exactly one child (v) => w was promoted by this insert (or is a
    // childless gateway regaining a child after a move-out; the repair is
    // idempotent and safe in that case too).
    repairReceiver(w);
  }
}

}  // namespace dsn
