#include "cluster/validate.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

namespace dsn {

std::string ValidationReport::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) os << '\n';
    os << violations[i].message;
  }
  return os.str();
}

bool ValidationReport::has(std::string_view cls) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const ValidationIssue& v) { return v.cls == cls; });
}

std::size_t ValidationReport::countOf(std::string_view cls) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const ValidationIssue& v) { return v.cls == cls; }));
}

std::vector<NodeId> ValidationReport::nodesOf(std::string_view cls) const {
  std::vector<NodeId> out;
  for (const ValidationIssue& v : violations)
    if (v.cls == cls) out.push_back(v.node);
  return out;
}

namespace {

/// One validation's working storage. It lives per thread, not in the
/// net: several threads may validate one shared net at once (serve
/// leases do), and once a thread's buffers are warm a sound net without
/// groups validates without touching the heap.
struct Scratch {
  /// The net nodes in id order.
  std::vector<NodeId> nodes;
  /// The tree BFS's queue; afterwards, every node it reached.
  std::vector<NodeId> order;
  /// The tree BFS's marks, indexed by node id.
  std::vector<std::uint8_t> seen;
};

class Checker {
 public:
  Checker(const ClusterNet& net, Scratch& scratch)
      : net_(net), g_(net.graph()), nodes_(scratch.nodes), s_(scratch) {}

  ValidationReport run() {
    nodes_.clear();
    for (NodeId v = 0; v < g_.size(); ++v)
      if (net_.contains(v)) nodes_.push_back(v);
    if (nodes_.empty()) {
      if (net_.root() != kInvalidNode)
        fail("empty-net") << "empty net but root is set to " << net_.root();
    } else if (!checkStaleEntries()) {
      checkTree();
      checkStatuses();
      checkProperty1();
      checkSlots();
      checkRootKnowledge();
      checkRelayCounts();
    }
    flush();
    return std::move(report_);
  }

 private:
  const ClusterNet& net_;
  const Graph& g_;
  std::vector<NodeId>& nodes_;
  Scratch& s_;
  /// Largest slot per family over the net nodes (checkSlots fills it).
  std::array<TimeSlot, kSlotFamilies> trueMax_{};
  ValidationReport report_;

  // fail() starts a new issue of class `cls` at `node`; the text
  // streamed into the returned stream is committed by the next fail()
  // or the final flush().
  std::ostringstream& fail(std::string cls, NodeId node = kInvalidNode) {
    flush();
    active_ = true;
    pendingCls_ = std::move(cls);
    pendingNode_ = node;
    pending_.str("");
    pending_.clear();
    return pending_;
  }
  std::ostringstream pending_;
  std::string pendingCls_;
  NodeId pendingNode_ = kInvalidNode;
  bool active_ = false;
  void flush() {
    if (active_) {
      report_.violations.push_back(
          ValidationIssue{pendingCls_, pendingNode_, pending_.str()});
      active_ = false;
    }
  }

  // A stale structure — crash-dead nodes still referenced (DESIGN.md
  // §10) — is reported entry by entry and stops validation: every
  // later check reads the graph view of each net node and assumes it is
  // live. The per-entry issues let recovery tooling (and the fuzz
  // harness) see exactly which ids went stale instead of one opaque
  // first-failure string. Returns true when some entry is stale.
  bool checkStaleEntries() {
    bool stale = false;
    for (NodeId v : nodes_) {
      if (!g_.isAlive(v)) {
        stale = true;
        fail("stale-entry", v)
            << "net entry " << v
            << " is dead in the graph (crash not yet repaired)";
      }
    }
    return stale;
  }

  void checkTree() {
    const NodeId root = net_.root();
    if (root == kInvalidNode || !net_.contains(root)) {
      fail("tree") << "root missing or not in net";
      return;
    }
    const NodeKnowledge& rootRecord = net_.knowledge(root);
    if (rootRecord.parent != kInvalidNode)
      fail("tree", root) << "root has a parent";
    if (rootRecord.depth != 0) fail("tree", root) << "root depth is not 0";

    Depth deepest = 0;
    std::vector<std::uint8_t>& seen = s_.seen;
    seen.assign(g_.size(), 0);
    std::vector<NodeId>& order = s_.order;
    order.assign(1, root);
    seen[root] = 1;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const NodeId v = order[i];
      const NodeKnowledge& kv = net_.knowledge(v);
      deepest = std::max(deepest, kv.depth);
      for (NodeId c : kv.children) {
        if (!net_.contains(c)) {
          fail("tree", c) << "child " << c << " of " << v << " not in net";
          continue;
        }
        const NodeKnowledge& kc = net_.knowledge(c);
        if (kc.parent != v)
          fail("tree", c) << "child " << c << " has parent " << kc.parent
                          << " != " << v;
        if (kc.depth != kv.depth + 1)
          fail("tree", c) << "depth of " << c << " is not parent depth + 1";
        if (!g_.hasEdge(v, c))
          fail("tree", c) << "tree edge (" << v << "," << c
                          << ") is not a graph edge";
        if (seen[c]) {
          fail("tree", c) << "node " << c << " reached twice (cycle?)";
          continue;
        }
        seen[c] = 1;
        order.push_back(c);
      }
    }
    if (net_.height() != deepest)
      fail("tree") << "height is " << net_.height()
                   << ", but the deepest reachable depth is " << deepest;
    if (order.size() != nodes_.size())
      fail("tree") << "only " << order.size() << " of " << nodes_.size()
                   << " net nodes reachable from root";
  }

  void checkStatuses() {
    if (net_.status(net_.root()) != NodeStatus::kClusterHead)
      fail("status", net_.root()) << "root is not a cluster head";
    for (NodeId v : nodes_) {
      const NodeKnowledge& k = net_.knowledge(v);
      const NodeStatus s = k.status;
      const NodeId p = k.parent;
      switch (s) {
        case NodeStatus::kPureMember:
          if (!k.children.empty())
            fail("status", v) << "pure member " << v << " has children";
          if (p == kInvalidNode || net_.status(p) != NodeStatus::kClusterHead)
            fail("status", v) << "pure member " << v
                              << " is not attached to a cluster head";
          break;
        case NodeStatus::kGateway:
          if (p == kInvalidNode || net_.status(p) != NodeStatus::kClusterHead)
            fail("status", v)
                << "gateway " << v << " is not attached to a cluster head";
          for (NodeId c : k.children)
            if (net_.status(c) != NodeStatus::kClusterHead)
              fail("status", v)
                  << "gateway " << v << " has non-head child " << c;
          // A gateway may legitimately end up childless after a
          // node-move-out re-homed its former subtree.
          break;
        case NodeStatus::kClusterHead:
          if (p != kInvalidNode && net_.status(p) != NodeStatus::kGateway)
            fail("status", v)
                << "head " << v << " has non-gateway parent " << p;
          break;
      }
      // Backbone alternation by depth parity (paper, after Property 1).
      if (isBackboneStatus(s)) {
        const bool even = k.depth % 2 == 0;
        if (even && s != NodeStatus::kClusterHead)
          fail("status", v)
              << "backbone node " << v << " at even depth is not a head";
        if (!even && s != NodeStatus::kGateway)
          fail("status", v)
              << "backbone node " << v << " at odd depth is not a gateway";
      }
    }
  }

  bool isHead(NodeId v) const {
    return net_.contains(v) &&
           net_.status(v) == NodeStatus::kClusterHead;
  }

  void checkProperty1() {
    for (NodeId h : nodes_) {
      if (!isHead(h)) continue;
      for (NodeId u : g_.neighbors(h))
        if (u > h && isHead(u))
          fail("head-adjacency", h)
              << "heads " << h << " and " << u
              << " are adjacent in G (Property 1(2))";
    }
    // Heads dominate the net nodes.
    for (NodeId v : nodes_) {
      if (isHead(v)) continue;
      const auto& nbrs = g_.neighbors(v);
      if (std::none_of(nbrs.begin(), nbrs.end(),
                       [this](NodeId u) { return isHead(u); }))
        fail("domination", v)
            << "node " << v << " is not dominated by any head";
    }
  }

  void checkSlots() {
    // Slots are chosen under the degrees *at assignment time*; after
    // shrinkage the sound bound uses the historical peak degree (and
    // never less than today's D).
    std::size_t peak = net_.peakDegree();
    for (NodeId v : nodes_) peak = std::max(peak, g_.degree(v));
    const std::size_t peakPairBound = peak * (peak + 1) / 2 + 1;
    const std::size_t peakSquareBound = peak * peak + 1;
    const NodeId root = net_.root();
    for (NodeId v : nodes_) {
      const NodeKnowledge& k = net_.knowledge(v);
      const NodeStatus s = k.status;
      for (std::size_t f = 0; f < kSlotFamilies; ++f)
        trueMax_[f] = std::max(trueMax_[f], k.slots[f]);
      if (v == root) {
        if (s == NodeStatus::kPureMember &&
            !net_.conditionHolds(SlotFamily::kL, v))
          fail("slot-condition", v)
              << "Time-Slot Condition (l) violated at member " << v;
      } else {
        const ClusterNet::ReceiverConditions holds =
            net_.receiverConditions(v);
        if (!holds.own) {
          if (s == NodeStatus::kPureMember)
            fail("slot-condition", v)
                << "Time-Slot Condition (l) violated at member " << v;
          else
            fail("slot-condition", v)
                << "Time-Slot Condition (b) violated at backbone node " << v;
        }
        if (!holds.u)
          fail("slot-condition", v)
              << "Time-Slot Condition 1 (u) violated at node " << v;
        const TimeSlot up = k.slot(SlotFamily::kUp);
        if (up == kNoSlot)
          fail("slot-condition", v)
              << "node " << v << " has no convergecast up-slot";
        else if (!net_.upConditionHolds(v))
          fail("slot-condition", v)
              << "convergecast up-slot condition violated at node " << v;
        if (up > peakSquareBound)
          fail("slot-bound", v) << "up-slot of " << v << " (" << up
                                << ") exceeds the D^2+1 bound "
                                << peakSquareBound;
      }
      const TimeSlot b = k.slot(SlotFamily::kB);
      const TimeSlot l = k.slot(SlotFamily::kL);
      const TimeSlot u = k.slot(SlotFamily::kU);
      if (isBackboneStatus(s)) {
        if (b != kNoSlot && b > peakPairBound)
          fail("slot-bound", v) << "b-slot of " << v << " (" << b
                                << ") exceeds Lemma 3 bound " << peakPairBound;
        if (l != kNoSlot && l > peakPairBound)
          fail("slot-bound", v) << "l-slot of " << v << " (" << l
                                << ") exceeds Lemma 3 bound " << peakPairBound;
        if (u != kNoSlot && u > peakPairBound)
          fail("slot-bound", v)
              << "u-slot of " << v << " (" << u
              << ") exceeds the D(D+1)/2+1 bound " << peakPairBound;
      } else if (b != kNoSlot || l != kNoSlot || u != kNoSlot) {
        fail("slot-bound", v) << "pure member " << v << " carries a time-slot";
      }
    }
  }

  void checkRootKnowledge() {
    // Each family with the name of its window and of its slots.
    struct Window {
      SlotFamily family;
      const char* window;
      const char* slot;
    };
    for (const Window w : {Window{SlotFamily::kB, "delta", "b-slot"},
                           Window{SlotFamily::kL, "Delta", "l-slot"},
                           Window{SlotFamily::kU, "Algorithm-1 window",
                                  "u-slot"},
                           Window{SlotFamily::kUp, "gather window",
                                  "up-slot"}}) {
      const TimeSlot known = net_.rootMaxSlot(w.family);
      const TimeSlot truth = trueMax_[static_cast<std::size_t>(w.family)];
      if (known < truth)
        fail("root-knowledge", net_.root())
            << "root's " << w.window << " (" << known << ") below true max "
            << w.slot << " (" << truth << ")";
    }
  }

  void checkRelayCounts() {
    // Brute-force recount: descendants' group memberships per node.
    std::map<NodeId, std::map<GroupId, int>> expected;
    for (NodeId v : nodes_) {
      for (GroupId g : net_.groupsOf(v)) {
        NodeId a = net_.parent(v);
        while (a != kInvalidNode) {
          ++expected[a][g];
          a = net_.parent(a);
        }
      }
    }
    for (NodeId v : nodes_) {
      const auto& flat = net_.knowledge(v).relayCount;
      const std::map<GroupId, int> have(flat.begin(), flat.end());
      const auto it = expected.find(v);
      const std::map<GroupId, int> empty;
      const auto& want = it == expected.end() ? empty : it->second;
      if (have != want)
        fail("relay-count", v)
            << "relay counts at node " << v
            << " do not match descendant memberships";
    }
  }
};

}  // namespace

ValidationReport ClusterNetValidator::validate(const ClusterNet& net) {
  thread_local Scratch scratch;
  return Checker(net, scratch).run();
}

}  // namespace dsn
