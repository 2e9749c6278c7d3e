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

  bool contains(NodeId v) const;
  std::size_t netSize() const { return netSize_; }
  /// Number of in-net heads + gateways, maintained incrementally —
  /// unlike backboneNodes().size() this is O(1), so per-move-in
  /// telemetry does not turn bulk construction quadratic.
  std::size_t backboneCount() const { return backboneCount_; }
  NodeId root() const { return root_; }

  NodeStatus status(NodeId v) const;
  NodeId parent(NodeId v) const;
  const std::vector<NodeId>& children(NodeId v) const;
  Depth depth(NodeId v) const;
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

  TimeSlot bSlot(NodeId v) const;
  TimeSlot lSlot(NodeId v) const;
  /// Unified Algorithm-1 slot (Time-Slot Condition 1).
  TimeSlot uSlot(NodeId v) const;
  /// Upward convergecast slot (dsnet extension; every non-root node has
  /// one).
  TimeSlot upSlot(NodeId v) const;
  /// δ as known at the root: monotone max over every b-slot ever
  /// reported. Never below the current true maximum.
  TimeSlot rootMaxBSlot() const { return rootMaxB_; }
  /// Δ as known at the root (same discipline for l-slots).
  TimeSlot rootMaxLSlot() const { return rootMaxL_; }
  /// Largest Algorithm-1 slot as known at the root.
  TimeSlot rootMaxUSlot() const { return rootMaxU_; }
  /// Largest convergecast up-slot as known at the root.
  TimeSlot rootMaxUpSlot() const { return rootMaxUp_; }
  /// Largest node degree ever observed while a node was inserted. Slot
  /// magnitudes are bounded by functions of the degree *at assignment
  /// time*, so validation after shrinkage must compare against this
  /// monotone peak, not the current degree.
  std::size_t peakDegree() const { return peakDegree_; }

  /// Exact current maxima (a global scan — used by benches to measure how
  /// far the root's monotone knowledge drifts from the truth).
  TimeSlot trueMaxBSlot() const;
  TimeSlot trueMaxLSlot() const;
  TimeSlot trueMaxUSlot() const;
  TimeSlot trueMaxUpSlot() const;

  /// Set of nodes that transmit in the window where backbone node `v`
  /// listens during the backbone flood: backbone neighbors at depth(v)-1.
  std::vector<NodeId> bInterferers(NodeId v) const;
  /// Set of nodes that transmit while pure-member `v` listens during the
  /// leaf hop. Under kStrict: all backbone neighbors; under kPaperLocal:
  /// backbone neighbors at depth(v)-1.
  std::vector<NodeId> lInterferers(NodeId v) const;

  /// Transmitters in the window where any node `v` listens during the
  /// Algorithm-1 whole-CNet flood: backbone neighbors at depth(v)-1
  /// (evaluated over their u-slots).
  std::vector<NodeId> uInterferers(NodeId v) const;

  /// True when v (a net node at depth > 0 / a pure member) can receive
  /// collision-free per the active policy — i.e. some interferer's slot
  /// is unique within the interferer set.
  bool bConditionHolds(NodeId v) const;
  bool lConditionHolds(NodeId v) const;
  /// Time-Slot Condition 1 at node v (any non-root net node).
  bool uConditionHolds(NodeId v) const;
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
  const NodeKnowledge& knowledge(NodeId v) const;

 private:
  Graph& graph_;
  ClusterNetConfig config_;
  std::vector<NodeKnowledge> know_;
  NodeId root_ = kInvalidNode;
  std::size_t netSize_ = 0;
  std::size_t backboneCount_ = 0;
  TimeSlot rootMaxB_ = 0;
  TimeSlot rootMaxL_ = 0;
  TimeSlot rootMaxU_ = 0;
  TimeSlot rootMaxUp_ = 0;
  std::size_t peakDegree_ = 0;
  /// depthCount_[d] = net nodes at depth d. The last entry is never 0,
  /// so the height is depthCount_.size() - 1.
  std::vector<std::size_t> depthCount_;
  RoundCost costs_;
  Rng attachRng_;

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
  NodeId selectCandidate(const std::vector<NodeId>& candidates);
  /// Net neighbors of v in G (live + inNet).
  std::vector<NodeId> netNeighbors(NodeId v) const;
  /// Meters the "updating your height" messages on the path from
  /// `start` to the root: one per hop, depth(start) + 1 in all.
  void chargeRootPath(NodeId start);
  void reportSlotToRoot(TimeSlot b, TimeSlot l, TimeSlot u = 0);

  // -- time-slot machinery (timeslots.cpp) --
  /// Procedure 1 for b-slots: recalculates y's b-slot from the
  /// constraints of its backbone "children side" C_b(y); meters rounds
  /// and reports the revised slot toward the root.
  void calculateBTimeSlot(NodeId y);
  /// Procedure 1 for l-slots (constrained by pure-member listeners).
  void calculateLTimeSlot(NodeId y);
  /// Procedure 1 for Algorithm-1 unified slots (constrained by every
  /// next-depth neighbor).
  void calculateUTimeSlot(NodeId y);
  /// Assigns the convergecast up-slot of a freshly inserted node.
  void assignUpSlot(NodeId v);
  /// Shared slot-restoration pass used by insertion and compaction.
  void restoreReceiverConditions(NodeId v);
  /// Algorithm 3: restores the slot conditions around freshly inserted
  /// leaf `v` (and its possibly-promoted parent chain).
  void updateTimeSlotsForInsert(NodeId v);
  /// Ensures the relevant condition holds at receiver `v`, recalculating
  /// its parent's slot when not; returns true when a repair ran.
  bool repairReceiver(NodeId v);
  /// Listener sets used by Procedure 1 (inverse of the interferer sets).
  std::vector<NodeId> bConstrainedListeners(NodeId y) const;
  std::vector<NodeId> lConstrainedListeners(NodeId y) const;
  std::vector<NodeId> uConstrainedListeners(NodeId y) const;
  /// Which slot field a procedure reads/writes.
  enum class SlotKind : std::uint8_t { kB, kL, kU };
  /// Slots of `nodes` (only assigned ones), excluding node `except`.
  std::vector<TimeSlot> slotsOf(const std::vector<NodeId>& nodes,
                                SlotKind kind, NodeId except) const;

  // -- move-out machinery (move_out.cpp) --
  std::vector<NodeId> collectSubtree(NodeId top) const;
  void detachNode(NodeId v);
  MoveOutReport withdrawInner(NodeId v);
  MoveOutReport withdrawRoot();

  // -- multicast internals --
  void adjustRelayOnPath(NodeId from, GroupId g, int delta);

  friend class ClusterNetValidator;
  friend class RecoveryManager;
  friend class ClusterScheduleView;
};

}  // namespace dsn
