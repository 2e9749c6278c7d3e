#include "cluster/cnet.hpp"

#include <algorithm>

#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

ClusterNet::ClusterNet(Graph& graph, ClusterNetConfig config)
    : graph_(graph),
      config_(std::move(config)),
      attachRng_(config_.attachSeed) {
  if (config_.attachPreference == AttachPreference::kBestScore) {
    DSN_REQUIRE(static_cast<bool>(config_.score),
                "kBestScore attach preference needs a score callback");
  }
  ensureKnowledgeSize();
}

void ClusterNet::ensureKnowledgeSize() {
  if (know_.size() < graph_.size()) know_.resize(graph_.size());
}

NodeKnowledge& ClusterNet::mutableKnowledge(NodeId v) {
  ensureKnowledgeSize();
  DSN_REQUIRE(v < know_.size(), "node id out of range");
  return know_[v];
}

void ClusterNet::requireInNet(NodeId v, const char* what) const {
  DSN_REQUIRE(v < know_.size() && know_[v].inNet,
              std::string(what) + ": node is not in the cluster net");
}

int ClusterNet::height() const {
  DSN_REQUIRE(root_ != kInvalidNode, "height: empty cluster net");
  return static_cast<int>(depthCount_.size()) - 1;
}

bool ClusterNet::isBackbone(NodeId v) const {
  requireInNet(v, "isBackbone");
  return isBackboneStatus(know_[v].status);
}

std::vector<NodeId> ClusterNet::backboneNodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < know_.size(); ++v)
    if (know_[v].inNet && isBackboneStatus(know_[v].status))
      out.push_back(v);
  return out;
}

std::vector<NodeId> ClusterNet::pureMembers() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < know_.size(); ++v)
    if (know_[v].inNet && know_[v].status == NodeStatus::kPureMember)
      out.push_back(v);
  return out;
}

std::vector<NodeId> ClusterNet::clusterHeads() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < know_.size(); ++v)
    if (know_[v].inNet && know_[v].status == NodeStatus::kClusterHead)
      out.push_back(v);
  return out;
}

std::vector<NodeId> ClusterNet::netNodes() const {
  std::vector<NodeId> out;
  out.reserve(netSize_);
  for (NodeId v = 0; v < know_.size(); ++v)
    if (know_[v].inNet) out.push_back(v);
  return out;
}

std::size_t ClusterNet::clusterCount() const {
  return clusterHeads().size();
}

std::vector<NodeId> ClusterNet::clusterMembers(NodeId head) const {
  requireInNet(head, "clusterMembers");
  DSN_REQUIRE(know_[head].status == NodeStatus::kClusterHead,
              "clusterMembers: node is not a cluster head");
  // A cluster = the head plus its CNet children that are members or
  // gateways (a gateway belongs to the cluster of its head parent;
  // the gateway's own child is the head of the *next* cluster).
  std::vector<NodeId> out;
  for (NodeId c : know_[head].children)
    if (know_[c].status != NodeStatus::kClusterHead) out.push_back(c);
  return out;
}

TimeSlot ClusterNet::trueMaxSlot(SlotFamily f) const {
  TimeSlot best = 0;
  for (const NodeKnowledge& k : know_)
    if (k.inNet) best = std::max(best, k.slot(f));
  return best;
}

NodeId ClusterNet::selectCandidate(const std::vector<NodeId>& candidates) {
  DSN_CHECK(!candidates.empty(), "selectCandidate with no candidates");
  switch (config_.attachPreference) {
    case AttachPreference::kLowestId:
      return *std::min_element(candidates.begin(), candidates.end());
    case AttachPreference::kRandom:
      return candidates[attachRng_.pickIndex(candidates)];
    case AttachPreference::kBestScore: {
      NodeId best = candidates.front();
      double bestScore = config_.score(best);
      for (NodeId c : candidates) {
        const double s = config_.score(c);
        if (s > bestScore || (s == bestScore && c < best)) {
          best = c;
          bestScore = s;
        }
      }
      return best;
    }
  }
  DSN_CHECK(false, "unreachable attach preference");
  return candidates.front();
}

std::vector<NodeId> ClusterNet::netNeighbors(NodeId v) const {
  std::vector<NodeId> out;
  for (NodeId u : graph_.neighbors(v))
    if (contains(u)) out.push_back(u);
  return out;
}

bool ClusterNet::canMoveIn(NodeId v) const {
  if (netSize_ == 0) return true;
  for (NodeId u : graph_.neighbors(v))
    if (contains(u)) return true;
  return false;
}

std::size_t ClusterNet::moveInReachable(std::vector<NodeId>& pending) {
  std::size_t admitted = 0;
  if (netSize_ == 0) {
    NodeId seed = kInvalidNode;
    for (NodeId t : pending)
      if (graph_.isAlive(t)) seed = std::min(seed, t);
    if (seed == kInvalidNode) return 0;
    moveIn(seed);
    pending.erase(std::find(pending.begin(), pending.end(), seed));
    ++admitted;
  }
  // A dead node has no graph neighbors, so it never passes canMoveIn on
  // the now non-empty net.
  for (bool progress = true; progress;) {
    progress = false;
    std::size_t kept = 0;
    for (NodeId t : pending) {
      if (canMoveIn(t)) {
        moveIn(t);
        ++admitted;
        progress = true;
      } else {
        pending[kept++] = t;
      }
    }
    pending.resize(kept);
  }
  return admitted;
}

void ClusterNet::chargeRootPath(NodeId start) {
  // Each hop is one "updating your height" message (paper Section 5.1,
  // step 2); the height itself follows from the per-depth counts.
  costs_.rootPath += know_[start].depth + 1;
}

void ClusterNet::reportSlotToRoot(SlotFamily f, TimeSlot slot) {
  // Carrying the revised maximum to the root costs one message per hop on
  // the root path; we meter the worst-case h (the paper's accounting).
  TimeSlot& known = rootMax_[static_cast<std::size_t>(f)];
  if (slot > known) {
    known = slot;
    costs_.rootPath += root_ != kInvalidNode ? height() : 0;
  }
}

void ClusterNet::buildAll(const std::vector<NodeId>& order) {
  DSN_TIMED_PHASE("cnet.build");
  for (NodeId v : order) moveIn(v);
}

// ---- Multicast (paper Section 3.4) ----

void ClusterNet::adjustRelayOnPath(NodeId from, GroupId g, int delta) {
  NodeId v = from;
  std::int64_t hops = 0;
  while (v != kInvalidNode) {
    auto& counts = know_[v].relayCount;
    const auto it = counts.find(g);
    const int next = (it == counts.end() ? 0 : it->second) + delta;
    DSN_CHECK(next >= 0, "relay count went negative");
    if (next == 0) {
      if (it != counts.end()) counts.erase(it);
    } else {
      counts[g] = next;
    }
    v = know_[v].parent;
    ++hops;
  }
  costs_.groupMaintenance += hops;
}

void ClusterNet::joinGroup(NodeId v, GroupId g) {
  requireInNet(v, "joinGroup");
  auto& groups = mutableKnowledge(v).groups;
  if (std::find(groups.begin(), groups.end(), g) != groups.end()) return;
  groups.push_back(g);
  if (know_[v].parent != kInvalidNode)
    adjustRelayOnPath(know_[v].parent, g, +1);
}

void ClusterNet::leaveGroup(NodeId v, GroupId g) {
  requireInNet(v, "leaveGroup");
  auto& groups = mutableKnowledge(v).groups;
  const auto it = std::find(groups.begin(), groups.end(), g);
  if (it == groups.end()) return;
  groups.erase(it);
  if (know_[v].parent != kInvalidNode)
    adjustRelayOnPath(know_[v].parent, g, -1);
}

bool ClusterNet::inGroup(NodeId v, GroupId g) const {
  requireInNet(v, "inGroup");
  const auto& groups = know_[v].groups;
  return std::find(groups.begin(), groups.end(), g) != groups.end();
}

const std::vector<GroupId>& ClusterNet::groupsOf(NodeId v) const {
  requireInNet(v, "groupsOf");
  return know_[v].groups;
}

bool ClusterNet::relaysGroup(NodeId v, GroupId g) const {
  requireInNet(v, "relaysGroup");
  const auto& counts = know_[v].relayCount;
  const auto it = counts.find(g);
  return it != counts.end() && it->second > 0;
}

std::vector<GroupId> ClusterNet::relayListOf(NodeId v) const {
  requireInNet(v, "relayListOf");
  std::vector<GroupId> out;
  for (const auto& [g, count] : know_[v].relayCount)
    if (count > 0) out.push_back(g);
  return out;
}

}  // namespace dsn
