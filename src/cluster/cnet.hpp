// ClusterNet — the paper's CNet(G) cluster-based architecture.
//
// A rooted spanning tree over the flat WSN graph G in which every node is
// a cluster-head, gateway, or pure-member (Definition 1), built and
// maintained *incrementally* through node-move-in / node-move-out
// (Section 5), with the per-node TDM time-slots of Section 4 kept valid
// across every reconfiguration. The backbone BT(G) (heads + gateways,
// Definition 2) and the multicast relay lists (Section 3.4) are
// maintained alongside.
//
// The class borrows a mutable Graph: move-in expects the node (and its
// radio edges) to already exist in the graph; move-out removes the node
// from both the structure and the graph.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/knowledge.hpp"
#include "cluster/round_cost.hpp"
#include "cluster/status.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dsn {

/// How time-slot interference sets are formed (DESIGN.md §4(1)).
enum class SlotPolicy : std::uint8_t {
  /// Literal Time-Slot Condition 2: a leaf's interference set is its
  /// previous-depth backbone neighbors only. Algorithm 2's leaf hop can
  /// then collide across depths — kept for the T5 ablation.
  kPaperLocal,
  /// Leaf interference set = all backbone neighbors (any depth), which is
  /// the set that actually transmits during Algorithm 2's shared leaf
  /// window. Restores collision-freedom; same asymptotic slot bound.
  kStrict,
};

/// Tie-breaking when several candidates could become the parent of a
/// joining node (the paper allows any application criterion).
enum class AttachPreference : std::uint8_t {
  kLowestId,    ///< deterministic; default
  kRandom,      ///< uniform among candidates (seeded via config)
  kBestScore,   ///< maximize a user score (e.g. remaining battery)
};

struct ClusterNetConfig {
  SlotPolicy slotPolicy = SlotPolicy::kStrict;
  AttachPreference attachPreference = AttachPreference::kLowestId;
  std::uint64_t attachSeed = 0x5EED5EEDull;  ///< used by kRandom
  /// Scoring callback for kBestScore (higher wins; ties to lowest id).
  std::function<double(NodeId)> score;
};

/// Result of one node-move-out (Theorem 3 bookkeeping).
struct MoveOutReport {
  /// Nodes of the detached subtree T that were re-inserted.
  std::size_t subtreeSize = 0;
  /// Nodes of T that became unreachable when the leaver partitioned G
  /// (they are dropped from the structure but stay in the graph).
  std::size_t orphaned = 0;
  /// Boundary receivers whose slot condition needed the repair pass
  /// (DESIGN.md §4 — the step the paper omits).
  std::size_t conditionRepairs = 0;
  /// Rounds consumed by this operation alone.
  RoundCost cost;
};

class ClusterNet {
 public:
  /// Binds to a graph the caller owns; the graph must outlive the net.
  explicit ClusterNet(Graph& graph, ClusterNetConfig config = {});

  ClusterNet(const ClusterNet&) = delete;
  ClusterNet& operator=(const ClusterNet&) = delete;

  // ---- Construction / reconfiguration (paper Section 5) ----

  /// node-move-in: inserts live graph node `v` into CNet(G).
  /// The first insertion makes `v` the root (a cluster-head). Later
  /// insertions require `v` to have at least one neighbor already in the
  /// net (Definition 1). Returns the chosen parent (kInvalidNode for the
  /// root). Updates time-slots, depths, the per-depth node counts, root
  /// knowledge and relay lists, and meters rounds into costs().
  NodeId moveIn(NodeId v);

  /// True when moveIn(v) may run now: the net is empty (v would become
  /// the root) or v has a neighbor inside the net. Allocation-free.
  bool canMoveIn(NodeId v) const;

  /// The re-join sweep behind construction, rebuild, move-out and crash
  /// recovery. On an empty net it first seeds the root with the lowest
  /// live id in `pending` (DESIGN.md §4(3)). It then sweeps `pending` in
  /// order, moving in every node with a net neighbor, until a sweep
  /// admits no one. The nodes it could not admit stay in `pending`, in
  /// order. Returns the number of nodes moved in.
  std::size_t moveInReachable(std::vector<NodeId>& pending);

  /// node-move-out: removes `v` from the structure *and the graph*,
  /// re-inserting its detached subtree (Section 5.2). Root departure
  /// follows DESIGN.md §4(3). Subtree nodes that become disconnected from
  /// the remaining net are dropped from the structure ("orphaned") but
  /// left alive in the graph.
  MoveOutReport moveOut(NodeId v);

  /// Structure-only departure: identical reconfiguration to moveOut but
  /// the node stays alive in the graph (it may re-join later with
  /// moveIn, and other ClusterNets sharing the graph keep seeing it).
  /// This is the primitive behind temporary withdrawals (low battery)
  /// and the multi-sink replication of paper Section 2.
  MoveOutReport withdraw(NodeId v);

  /// Convenience: move-in every id in `order`.
  void buildAll(const std::vector<NodeId>& order);

  /// Slot compaction: recomputes every time-slot from scratch in BFS
  /// order and resets the root's window knowledge to the true maxima.
  /// The incremental maintenance only ever *reports increases* to the
  /// root (paper Section 5.1), so after heavy churn the TDM windows the
  /// root schedules can be larger than any slot still in use; a sweep
  /// restores tight windows. Returns the rounds metered for the sweep.
  std::int64_t compactSlots();

  // ---- Structure queries ----

  bool contains(NodeId v) const {
    return v < know_.size() && know_[v].inNet;
  }
  std::size_t netSize() const { return netSize_; }
  /// Number of in-net heads + gateways, maintained incrementally —
  /// unlike backboneNodes().size() this is O(1), so per-move-in
  /// telemetry does not turn bulk construction quadratic.
  std::size_t backboneCount() const { return backboneCount_; }
  NodeId root() const { return root_; }

  NodeStatus status(NodeId v) const { return record(v, "status").status; }
  NodeId parent(NodeId v) const { return record(v, "parent").parent; }
  const std::vector<NodeId>& children(NodeId v) const {
    return record(v, "children").children;
  }
  Depth depth(NodeId v) const { return record(v, "depth").depth; }
  /// Height of CNet(G): the deepest depth any net node sits at.
  int height() const;

  bool isBackbone(NodeId v) const;
  std::vector<NodeId> backboneNodes() const;
  std::vector<NodeId> pureMembers() const;
  std::vector<NodeId> clusterHeads() const;
  std::vector<NodeId> netNodes() const;
  std::size_t clusterCount() const;

  /// Members of the cluster headed by `head` (excluding the head).
  std::vector<NodeId> clusterMembers(NodeId head) const;

  // ---- Time-slot queries (paper Section 4) ----

  TimeSlot bSlot(NodeId v) const { return knowledge(v).slot(SlotFamily::kB); }
  TimeSlot lSlot(NodeId v) const { return knowledge(v).slot(SlotFamily::kL); }
  /// Unified Algorithm-1 slot (Time-Slot Condition 1).
  TimeSlot uSlot(NodeId v) const { return knowledge(v).slot(SlotFamily::kU); }
  /// Upward convergecast slot (dsnet extension; every non-root node has
  /// one).
  TimeSlot upSlot(NodeId v) const {
    return knowledge(v).slot(SlotFamily::kUp);
  }
  /// Largest f-slot as known at the root: a monotone max over every
  /// f-slot ever reported, never below the current true maximum. It sizes
  /// the family's TDM window.
  TimeSlot rootMaxSlot(SlotFamily f) const {
    return rootMax_[static_cast<std::size_t>(f)];
  }
  /// δ as known at the root.
  TimeSlot rootMaxBSlot() const { return rootMaxSlot(SlotFamily::kB); }
  /// Δ as known at the root.
  TimeSlot rootMaxLSlot() const { return rootMaxSlot(SlotFamily::kL); }
  /// Largest Algorithm-1 slot as known at the root.
  TimeSlot rootMaxUSlot() const { return rootMaxSlot(SlotFamily::kU); }
  /// Largest convergecast up-slot as known at the root.
  TimeSlot rootMaxUpSlot() const { return rootMaxSlot(SlotFamily::kUp); }
  /// Largest node degree ever observed while a node was inserted. Slot
  /// magnitudes are bounded by functions of the degree *at assignment
  /// time*, so validation after shrinkage must compare against this
  /// monotone peak, not the current degree.
  std::size_t peakDegree() const { return peakDegree_; }

  /// Exact current maximum of family `f` (a global scan — used by benches
  /// to measure how far the root's monotone knowledge drifts from the
  /// truth).
  TimeSlot trueMaxSlot(SlotFamily f) const;

  /// The b/l/u receive rule, one for all three families. `v` receives in
  /// family f when it is a non-root backbone node (b), a pure member (l)
  /// or any non-root node (u). Net node `tx` transmits in the window
  /// where `v` listens when `tx` is a backbone node at depth(v)-1; for l
  /// under kStrict any backbone neighbor does (Algorithm 2's leaf hop is
  /// one shared window). interferers() lists, in adjacency order, the
  /// neighbors that transmit while receiver `v` listens in family f.
  std::vector<NodeId> interferers(SlotFamily f, NodeId v) const;

  /// Time-Slot Condition of family f (b, l or u) at receiver `v`: some
  /// interferer's f-slot is unique within the interferer set, so that
  /// transmitter gets through. It reuses a per-thread buffer, so once
  /// warm it allocates nothing, and several threads may check one net
  /// that no thread mutates.
  bool conditionHolds(SlotFamily f, NodeId v) const;
  /// Both downward conditions of non-root receiver `v`, from one walk
  /// over its neighbors: `own` is its status family's (l for a pure
  /// member, else b) and `u` is Algorithm 1's. Equal to conditionHolds
  /// of each family, with the same per-thread scratch contract.
  struct ReceiverConditions {
    bool own = false;
    bool u = false;
  };
  ReceiverConditions receiverConditions(NodeId v) const;
  /// Convergecast condition at node v (non-root): v's up-slot differs
  /// from the up-slot of every other same-depth node sharing a
  /// previous-depth neighbor with v (so every potential listener hears
  /// v collision-free).
  bool upConditionHolds(NodeId v) const;

  // ---- Multicast lists (paper Section 3.4) ----

  /// Adds v to group g, updating ancestor relay lists (cost metered).
  void joinGroup(NodeId v, GroupId g);
  void leaveGroup(NodeId v, GroupId g);
  bool inGroup(NodeId v, GroupId g) const;
  const std::vector<GroupId>& groupsOf(NodeId v) const;
  /// True when g is in v's relay-list (some strict descendant is in g).
  bool relaysGroup(NodeId v, GroupId g) const;
  std::vector<GroupId> relayListOf(NodeId v) const;

  // ---- Accounting / access ----

  const RoundCost& costs() const { return costs_; }
  void resetCosts() { costs_ = RoundCost{}; }
  const Graph& graph() const { return graph_; }
  const ClusterNetConfig& config() const { return config_; }

  /// Raw knowledge record (read-only; used by validators and protocols).
  const NodeKnowledge& knowledge(NodeId v) const {
    return record(v, "knowledge");
  }

 private:
  Graph& graph_;
  ClusterNetConfig config_;
  std::vector<NodeKnowledge> know_;
  NodeId root_ = kInvalidNode;
  std::size_t netSize_ = 0;
  std::size_t backboneCount_ = 0;
  /// The root's monotone window knowledge, indexed by SlotFamily.
  std::array<TimeSlot, kSlotFamilies> rootMax_{};
  std::size_t peakDegree_ = 0;
  /// depthCount_[d] = net nodes at depth d. The last entry is never 0,
  /// so the height is depthCount_.size() - 1.
  std::vector<std::size_t> depthCount_;
  RoundCost costs_;
  Rng attachRng_;
  /// Procedure 1's forbidden-slot scratch. Only the mutating procedures
  /// use it, and a net has one writer, so a member buffer is safe.
  std::vector<TimeSlot> forbidden_;

  // -- shared helpers (cnet.cpp) --
  /// Neighbor range of v: the graph's CSR snapshot when it is fresh
  /// (compactSlots freshens it once up front for its whole BFS pass),
  /// else the per-node adjacency vector — never forces an O(V+E) rebuild
  /// inside the incremental mutation path.
  CsrView::Span adj(NodeId v) const {
    if (const CsrView* csr = graph_.csrViewIfFresh())
      return csr->neighbors(v);
    const auto& n = graph_.neighbors(v);
    return CsrView::Span{n.data(), n.data() + n.size()};
  }
  void ensureKnowledgeSize();
  NodeKnowledge& mutableKnowledge(NodeId v);
  void requireInNet(NodeId v, const char* what) const;
  /// v's record for the inline readers; the not-in-net throw stays out
  /// of line, in requireInNet.
  const NodeKnowledge& record(NodeId v, const char* what) const {
    if (!contains(v)) requireInNet(v, what);
    return know_[v];
  }
  NodeId selectCandidate(const std::vector<NodeId>& candidates);
  /// Net neighbors of v in G (live + inNet).
  std::vector<NodeId> netNeighbors(NodeId v) const;
  /// Meters the "updating your height" messages on the path from
  /// `start` to the root: one per hop, depth(start) + 1 in all.
  void chargeRootPath(NodeId start);
  /// Carries a revised f-slot to the root when it raises the root's
  /// window knowledge.
  void reportSlotToRoot(SlotFamily f, TimeSlot slot);

  // -- time-slot machinery (timeslots.cpp) --
  /// Halves of the receive rule (see interferers()); receives() expects
  /// an in-net `v`, transmitsTo() an in-net receiver `v`.
  bool receives(SlotFamily f, NodeId v) const;
  bool transmitsTo(SlotFamily f, NodeId tx, NodeId v) const;
  /// Throws unless `v` is an in-net receiver of family f (b, l or u).
  void requireReceiver(SlotFamily f, NodeId v, const char* what) const;
  /// Appends tx's f-slot when tx is one of v's f-interferers and holds
  /// an f-slot.
  void appendInterfererSlot(SlotFamily f, NodeId tx, NodeId v,
                            std::vector<TimeSlot>& out) const;
  /// Appends the assigned f-slots of v's interferers, except `except`'s.
  void appendInterfererSlots(SlotFamily f, NodeId v, NodeId except,
                             std::vector<TimeSlot>& out) const;
  /// Procedure 1 for family f (b, l or u): recalculates backbone node
  /// y's f-slot as the least slot that keeps every listener y constrains
  /// collision-free; meters 1 + |C(y)| rounds and reports the revised
  /// slot toward the root.
  void calculateTimeSlot(SlotFamily f, NodeId y);
  /// Assigns the convergecast up-slot of a freshly inserted node.
  void assignUpSlot(NodeId v);
  /// Algorithm 3: restores the slot conditions around freshly inserted
  /// leaf `v` (and its possibly-promoted parent chain).
  void updateTimeSlotsForInsert(NodeId v);
  /// Ensures v's receive conditions hold (l or b, then u), recalculating
  /// its parent's slot where one does not; returns true when a repair
  /// ran. Insertion, compaction, move-out and recovery all repair
  /// through it.
  bool repairReceiver(NodeId v);

  // -- move-out machinery (move_out.cpp) --
  std::vector<NodeId> collectSubtree(NodeId top) const;
  void detachNode(NodeId v);
  MoveOutReport withdrawInner(NodeId v);
  MoveOutReport withdrawRoot();

  // -- multicast internals --
  void adjustRelayOnPath(NodeId from, GroupId g, int delta);

  friend class RecoveryManager;
};

}  // namespace dsn
