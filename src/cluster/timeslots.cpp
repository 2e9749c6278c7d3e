// Incremental time-slot assignment (paper Section 4).
//
// Three slot families are maintained for the downward floods, one per
// flood phase, under one receive rule (ClusterNet::interferers):
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
// (calculateTimeSlot), which consults every listener constrained by the
// changing node and picks the minimum positive slot that keeps each tight
// listener deliverable; this preserves all conditions inductively. The
// convergecast up-slots follow a different rule (a parent must hear every
// child) and keep their own assignment, assignUpSlot.

#include <algorithm>
#include <span>

#include "cluster/cnet.hpp"
#include "obs/flight.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// Flight-recorder slot-recompute marker; the kind is the family's index
/// (0 = B, 1 = L, 2 = U, 3 = up — the FrType::kSlotRecompute aux
/// contract). Slot assignments are rare relative to radio traffic, so
/// they are recorded whenever the cluster category is live, independent
/// of round sampling.
void recordSlotRecompute(NodeId y, TimeSlot slot, SlotFamily f) {
  if (obs::FlightRecorder* fr = obs::recorderFor<obs::kFrCatCluster>())
    fr->record(obs::makeFrEvent(obs::FrType::kSlotRecompute, 0, y,
                                static_cast<std::uint32_t>(slot), 0,
                                static_cast<std::uint16_t>(f)));
}

/// Sorts `slots` and counts the values occurring exactly once in it.
std::size_t singletonCount(std::span<TimeSlot> slots) {
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

/// Smallest positive integer not contained in `taken` (duplicates fine);
/// sorts `taken`.
TimeSlot minimumFreeSlot(std::vector<TimeSlot>& taken) {
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

// ---- The receive rule (who transmits while v listens) ----

bool ClusterNet::receives(SlotFamily f, NodeId v) const {
  const NodeKnowledge& k = know_[v];
  switch (f) {
    case SlotFamily::kB:
      return isBackboneStatus(k.status) && k.depth > 0;
    case SlotFamily::kL:
      return k.status == NodeStatus::kPureMember;
    case SlotFamily::kU:
      return k.depth > 0;
    case SlotFamily::kUp:
      break;
  }
  return false;
}

bool ClusterNet::transmitsTo(SlotFamily f, NodeId tx, NodeId v) const {
  if (!contains(tx) || !isBackboneStatus(know_[tx].status)) return false;
  return know_[tx].depth == know_[v].depth - 1 ||
         (f == SlotFamily::kL && config_.slotPolicy == SlotPolicy::kStrict);
}

void ClusterNet::requireReceiver(SlotFamily f, NodeId v,
                                 const char* what) const {
  requireInNet(v, what);
  DSN_REQUIRE(receives(f, v),
              std::string(what) +
                  ": node does not receive in this slot family (b: non-root "
                  "backbone, l: pure member, u: non-root)");
}

void ClusterNet::appendInterfererSlots(SlotFamily f, NodeId v, NodeId except,
                                       std::vector<TimeSlot>& out) const {
  for (NodeId u : adj(v)) {
    if (u == except || !transmitsTo(f, u, v)) continue;
    const TimeSlot s = know_[u].slot(f);
    if (s != kNoSlot) out.push_back(s);
  }
}

std::vector<NodeId> ClusterNet::interferers(SlotFamily f, NodeId v) const {
  requireReceiver(f, v, "interferers");
  std::vector<NodeId> out;
  for (NodeId u : adj(v))
    if (transmitsTo(f, u, v)) out.push_back(u);
  return out;
}

bool ClusterNet::conditionHolds(SlotFamily f, NodeId v) const {
  requireReceiver(f, v, "conditionHolds");
  // Per thread, not a member: validation reads one shared net from
  // several threads at once.
  thread_local std::vector<TimeSlot> slots;
  slots.clear();
  appendInterfererSlots(f, v, kInvalidNode, slots);
  return singletonCount(slots) > 0;
}

// ---- Procedure 1 (paper Section 4) ----

void ClusterNet::calculateTimeSlot(SlotFamily f, NodeId y) {
  requireInNet(y, "calculateTimeSlot");
  DSN_REQUIRE(f != SlotFamily::kUp && isBackboneStatus(know_[y].status),
              "calculateTimeSlot: only backbone nodes carry b/l/u-slots");

  // Every listener y constrains contributes the slots of its other
  // interferers, unless two of them are unique already (then it is safe
  // whatever y picks).
  std::int64_t listeners = 0;
  forbidden_.clear();
  for (NodeId v : adj(y)) {
    if (!contains(v) || !receives(f, v) || !transmitsTo(f, y, v)) continue;
    ++listeners;
    const std::size_t mark = forbidden_.size();
    appendInterfererSlots(f, v, y, forbidden_);
    if (singletonCount(std::span(forbidden_).subspan(mark)) >= 2)
      forbidden_.resize(mark);
  }
  // Procedure 1(i): one round for y's request, then each listener answers
  // in turn (Lemma 2(1): 1 + |C(y)| rounds).
  costs_.slotUpdate += 1 + listeners;

  TimeSlot& slot = know_[y].slot(f);
  slot = minimumFreeSlot(forbidden_);
  recordSlotRecompute(y, slot, f);
  reportSlotToRoot(f, slot);
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
  const TimeSlot mine = know_[v].slot(SlotFamily::kUp);
  if (mine == kNoSlot) return false;
  const Depth d = know_[v].depth;
  const NodeId p = know_[v].parent;
  for (NodeId u : adj(p)) {
    if (u == v || !contains(u)) continue;
    if (know_[u].depth == d && know_[u].slot(SlotFamily::kUp) == mine)
      return false;
  }
  return true;
}

void ClusterNet::assignUpSlot(NodeId v) {
  // Forbidden set: up-slots of every same-depth node that shares a
  // previous-depth neighbor with v — then every potential listener can
  // separate v from all other transmitters in its gather window.
  const Depth d = know_[v].depth;
  forbidden_.clear();
  std::int64_t listeners = 0;
  for (NodeId q : adj(v)) {
    if (!contains(q) || know_[q].depth != d - 1) continue;
    ++listeners;
    for (NodeId u : adj(q)) {
      if (u == v || !contains(u) || know_[u].depth != d) continue;
      const TimeSlot s = know_[u].slot(SlotFamily::kUp);
      if (s != kNoSlot) forbidden_.push_back(s);
    }
  }
  costs_.slotUpdate += 1 + listeners;
  TimeSlot& slot = know_[v].slot(SlotFamily::kUp);
  slot = minimumFreeSlot(forbidden_);
  recordSlotRecompute(v, slot, SlotFamily::kUp);
  reportSlotToRoot(SlotFamily::kUp, slot);
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

  // v listens in Algorithm 2's window for its status, then in Algorithm
  // 1's, where every non-root node is a receiver.
  bool repaired = false;
  const SlotFamily own = know_[v].status == NodeStatus::kPureMember
                             ? SlotFamily::kL
                             : SlotFamily::kB;
  for (const SlotFamily f : {own, SlotFamily::kU}) {
    if (conditionHolds(f, v)) continue;
    calculateTimeSlot(f, w);
    DSN_CHECK(conditionHolds(f, v),
              "parent slot recalculation failed to restore the receiver's "
              "Time-Slot Condition");
    repaired = true;
  }
  return repaired;
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

  for (NodeId v : order) know_[v].slots.fill(kNoSlot);
  rootMax_.fill(0);

  for (NodeId v : order) {
    if (v == root_) continue;
    repairReceiver(v);
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
