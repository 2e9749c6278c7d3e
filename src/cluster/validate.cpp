#include "cluster/validate.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>
#include <unordered_set>

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

class Checker {
 public:
  explicit Checker(const ClusterNet& net) : net_(net), g_(net.graph()) {}

  ValidationReport run() {
    nodes_ = net_.netNodes();
    if (nodes_.empty()) {
      if (net_.root() != kInvalidNode)
        fail("empty-net") << "empty net but root is set to " << net_.root();
      flush();
      return std::move(report_);
    }
    // A stale structure — crash-dead nodes still referenced (DESIGN.md
    // §10) — is reported entry by entry and stops here: every downstream
    // check reads the graph view of each net node and assumes it is
    // live. The per-entry issues let recovery tooling (and the fuzz
    // harness) see exactly which ids went stale instead of one opaque
    // first-failure string.
    bool stale = false;
    flushingScope([&] {
      for (NodeId v : nodes_) {
        if (!g_.isAlive(v)) {
          stale = true;
          fail("stale-entry", v)
              << "net entry " << v
              << " is dead in the graph (crash not yet repaired)";
        }
      }
    });
    if (stale) return std::move(report_);
    checkTree();
    checkStatuses();
    checkProperty1();
    checkSlots();
    checkRootKnowledge();
    checkRelayCounts();
    return std::move(report_);
  }

 private:
  const ClusterNet& net_;
  const Graph& g_;
  std::vector<NodeId> nodes_;
  ValidationReport report_;

  // fail() starts a new issue of class `cls` at `node`; the text
  // streamed into the returned stream is committed by the next fail()
  // or scope end.
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

  void checkTree() {
    flushingScope([&] {
      const NodeId root = net_.root();
      if (root == kInvalidNode || !net_.contains(root)) {
        fail("tree") << "root missing or not in net";
        return;
      }
      if (net_.parent(root) != kInvalidNode)
        fail("tree", root) << "root has a parent";
      if (net_.depth(root) != 0) fail("tree", root) << "root depth is not 0";

      std::size_t reached = 0;
      Depth deepest = 0;
      std::queue<NodeId> q;
      std::unordered_set<NodeId> seen{root};
      q.push(root);
      while (!q.empty()) {
        const NodeId v = q.front();
        q.pop();
        ++reached;
        deepest = std::max(deepest, net_.depth(v));
        for (NodeId c : net_.children(v)) {
          if (!net_.contains(c)) {
            fail("tree", c) << "child " << c << " of " << v << " not in net";
            continue;
          }
          if (net_.parent(c) != v)
            fail("tree", c) << "child " << c << " has parent "
                            << net_.parent(c) << " != " << v;
          if (net_.depth(c) != net_.depth(v) + 1)
            fail("tree", c) << "depth of " << c << " is not parent depth + 1";
          if (!g_.hasEdge(v, c))
            fail("tree", c) << "tree edge (" << v << "," << c
                            << ") is not a graph edge";
          if (!seen.insert(c).second) {
            fail("tree", c) << "node " << c << " reached twice (cycle?)";
            continue;
          }
          q.push(c);
        }
      }
      if (net_.height() != deepest)
        fail("tree") << "height is " << net_.height()
                     << ", but the deepest reachable depth is " << deepest;
      if (reached != nodes_.size())
        fail("tree") << "only " << reached << " of " << nodes_.size()
                     << " net nodes reachable from root";
    });
  }

  void checkStatuses() {
    flushingScope([&] {
      if (net_.status(net_.root()) != NodeStatus::kClusterHead)
        fail("status", net_.root()) << "root is not a cluster head";
      for (NodeId v : nodes_) {
        const NodeStatus s = net_.status(v);
        const NodeId p = net_.parent(v);
        switch (s) {
          case NodeStatus::kPureMember:
            if (!net_.children(v).empty())
              fail("status", v) << "pure member " << v << " has children";
            if (p == kInvalidNode ||
                net_.status(p) != NodeStatus::kClusterHead)
              fail("status", v) << "pure member " << v
                                << " is not attached to a cluster head";
            break;
          case NodeStatus::kGateway:
            if (p == kInvalidNode ||
                net_.status(p) != NodeStatus::kClusterHead)
              fail("status", v) << "gateway " << v
                                << " is not attached to a cluster head";
            for (NodeId c : net_.children(v))
              if (net_.status(c) != NodeStatus::kClusterHead)
                fail("status", v)
                    << "gateway " << v << " has non-head child " << c;
            // A gateway may legitimately end up childless after a
            // node-move-out re-homed its former subtree.
            break;
          case NodeStatus::kClusterHead:
            if (p != kInvalidNode &&
                net_.status(p) != NodeStatus::kGateway)
              fail("status", v)
                  << "head " << v << " has non-gateway parent " << p;
            break;
        }
        // Backbone alternation by depth parity (paper, after Property 1).
        if (isBackboneStatus(s)) {
          const bool even = net_.depth(v) % 2 == 0;
          if (even && s != NodeStatus::kClusterHead)
            fail("status", v)
                << "backbone node " << v << " at even depth is not a head";
          if (!even && s != NodeStatus::kGateway)
            fail("status", v) << "backbone node " << v
                              << " at odd depth is not a gateway";
        }
      }
    });
  }

  void checkProperty1() {
    flushingScope([&] {
      const auto heads = net_.clusterHeads();
      std::unordered_set<NodeId> headSet(heads.begin(), heads.end());
      for (NodeId h : heads)
        for (NodeId u : g_.neighbors(h))
          if (headSet.count(u) && u > h)
            fail("head-adjacency", h)
                << "heads " << h << " and " << u
                << " are adjacent in G (Property 1(2))";
      // Heads dominate the net nodes.
      for (NodeId v : nodes_) {
        if (headSet.count(v)) continue;
        const bool dominated =
            std::any_of(g_.neighbors(v).begin(), g_.neighbors(v).end(),
                        [&](NodeId u) { return headSet.count(u) != 0; });
        if (!dominated)
          fail("domination", v)
              << "node " << v << " is not dominated by any head";
      }
    });
  }

  void checkSlots() {
    flushingScope([&] {
      // Slots are chosen under the degrees *at assignment time*; after
      // shrinkage the sound bound uses the historical peak degree (and
      // never less than today's D).
      std::size_t peak = net_.peakDegree();
      for (NodeId v : nodes_) peak = std::max(peak, g_.degree(v));
      const std::size_t peakPairBound = peak * (peak + 1) / 2 + 1;
      const std::size_t peakSquareBound = peak * peak + 1;
      for (NodeId v : nodes_) {
        const NodeStatus s = net_.status(v);
        if (s == NodeStatus::kPureMember) {
          if (!net_.conditionHolds(SlotFamily::kL, v))
            fail("slot-condition", v)
                << "Time-Slot Condition (l) violated at member " << v;
        } else if (v != net_.root()) {
          if (!net_.conditionHolds(SlotFamily::kB, v))
            fail("slot-condition", v)
                << "Time-Slot Condition (b) violated at backbone node " << v;
        }
        if (v != net_.root() && !net_.conditionHolds(SlotFamily::kU, v))
          fail("slot-condition", v)
              << "Time-Slot Condition 1 (u) violated at node " << v;
        if (v != net_.root()) {
          if (net_.upSlot(v) == kNoSlot)
            fail("slot-condition", v)
                << "node " << v << " has no convergecast up-slot";
          else if (!net_.upConditionHolds(v))
            fail("slot-condition", v)
                << "convergecast up-slot condition violated at node " << v;
          if (net_.upSlot(v) > peakSquareBound)
            fail("slot-bound", v)
                << "up-slot of " << v << " (" << net_.upSlot(v)
                << ") exceeds the D^2+1 bound " << peakSquareBound;
        }
        if (isBackboneStatus(s)) {
          if (net_.bSlot(v) != kNoSlot && net_.bSlot(v) > peakPairBound)
            fail("slot-bound", v)
                << "b-slot of " << v << " (" << net_.bSlot(v)
                << ") exceeds Lemma 3 bound " << peakPairBound;
          if (net_.lSlot(v) != kNoSlot && net_.lSlot(v) > peakPairBound)
            fail("slot-bound", v)
                << "l-slot of " << v << " (" << net_.lSlot(v)
                << ") exceeds Lemma 3 bound " << peakPairBound;
          if (net_.uSlot(v) != kNoSlot && net_.uSlot(v) > peakPairBound)
            fail("slot-bound", v)
                << "u-slot of " << v << " (" << net_.uSlot(v)
                << ") exceeds the D(D+1)/2+1 bound " << peakPairBound;
        } else {
          if (net_.bSlot(v) != kNoSlot || net_.lSlot(v) != kNoSlot ||
              net_.uSlot(v) != kNoSlot)
            fail("slot-bound", v) << "pure member " << v
                                  << " carries a time-slot";
        }
      }
    });
  }

  void checkRootKnowledge() {
    flushingScope([&] {
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
        const TimeSlot truth = net_.trueMaxSlot(w.family);
        if (known < truth)
          fail("root-knowledge", net_.root())
              << "root's " << w.window << " (" << known
              << ") below true max " << w.slot << " (" << truth << ")";
      }
    });
  }

  void checkRelayCounts() {
    flushingScope([&] {
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
    });
  }

  template <typename F>
  void flushingScope(F&& f) {
    f();
    flush();
  }
};

}  // namespace

ValidationReport ClusterNetValidator::validate(const ClusterNet& net) {
  return Checker(net).run();
}

}  // namespace dsn
