#include "broadcast/dfo.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "broadcast/runner_detail.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// DFO's swarm: the backbone nodes' token tour and the pure members'
/// listening, keyed by node id.
///
/// A backbone node listens for the token until its part of the tour
/// closes. Holding the token, it sends it to the next BT neighbor it has
/// not sent to yet (the one the token came from counts as sent: the
/// final hand-back covers that edge), and once none is left it hands the
/// token back to its tour parent. A member listens until it overhears the
/// payload; a member source first hands the payload to its head in round
/// 0.
class DfoSwarm final : public PayloadSwarm {
 public:
  explicit DfoSwarm(std::size_t nodeCount)
      : PayloadSwarm(nodeCount),
        link_(nodeCount, kInvalidNode),
        pending_(nodeCount) {}

  /// Registers backbone node `v` with its BT neighbors (backbone parent,
  /// then backbone children). The tour start holds the token from round
  /// 0 and has no tour parent: a token returning to it must not be
  /// mistaken for a first delivery (it would otherwise emit a spurious
  /// final hand-back).
  void addBackbone(NodeId v, bool isTourStart, std::uint64_t payload,
                   std::vector<NodeId> btNeighbors) {
    addHolder(v, isTourStart, payload);
    flags_[v] |= kBackbone;
    if (isTourStart) flags_[v] |= kHadToken | kHoldsToken;
    pending_[v] = std::move(btNeighbors);
  }

  /// Registers pure member `v` under `head`.
  void addMember(NodeId v, NodeId head, bool isSource,
                 std::uint64_t payload) {
    addHolder(v, isSource, payload);
    link_[v] = head;
    if (isSource) flags_[v] |= kSource;
  }

  Action onRound(NodeId v, Round r) override {
    std::uint8_t& f = flags_[v];
    if (!(f & kBackbone)) {
      if ((f & kSource) && !(f & kSentToHead)) {
        DSN_CHECK(r == 0, "source member transmits in the first round");
        f |= kSentToHead;
        return Action::transmit(token(v, link_[v]));
      }
      if (f & kHasPayload) return Action::sleep();
      return Action::listen();
    }

    if (f & kClosed) return Action::sleep();
    if (!(f & kHoldsToken)) return Action::listen();

    f &= static_cast<std::uint8_t>(~kHoldsToken);
    std::vector<NodeId>& pending = pending_[v];
    if (!pending.empty()) {
      const NodeId next = pending.front();
      pending.erase(pending.begin());
      if (pending.empty() && link_[v] == kInvalidNode) f |= kClosed;
      return Action::transmit(token(v, next));
    }
    f |= kClosed;
    if (link_[v] != kInvalidNode) {
      // Subtree finished: hand the token back where it came from.
      const NodeId back = link_[v];
      link_[v] = kInvalidNode;
      return Action::transmit(token(v, back));
    }
    // Lone backbone node (single-cluster network): one transmission
    // serves every member in range.
    return Action::transmit(token(v, kInvalidNode));
  }

  void onReceive(NodeId v, const Message& m, Round r, Channel) override {
    if (m.kind != MsgKind::kToken) return;
    takePayload(v, m.payload, r);
    std::uint8_t& f = flags_[v];
    if (!(f & kBackbone) || m.target != v || (f & kClosed)) return;
    if (!(f & kHadToken)) {
      // First time the token reaches us: remember who to return it to.
      f |= kHadToken;
      link_[v] = m.sender;
    }
    std::vector<NodeId>& pending = pending_[v];
    pending.erase(std::remove(pending.begin(), pending.end(), m.sender),
                  pending.end());
    f |= kHoldsToken;
  }

  bool isDone(NodeId v) const override {
    const std::uint8_t f = flags_[v];
    if (f & kBackbone) return (f & kClosed) != 0;
    return (f & kHasPayload) && (!(f & kSource) || (f & kSentToHead));
  }

  /// A backbone node listens every round for the token until its tour
  /// part closes. A member source hands off in round 0; then a member
  /// without the payload listens every round, and with it sleeps forever.
  Round nextWake(NodeId v, Round now) const override {
    const std::uint8_t f = flags_[v];
    if (f & kBackbone) return (f & kClosed) ? kNoWake : now + 1;
    if ((f & kSource) && !(f & kSentToHead)) return now < 0 ? 0 : now + 1;
    return (f & kHasPayload) ? kNoWake : now + 1;
  }

 private:
  static constexpr std::uint8_t kBackbone = 2;
  static constexpr std::uint8_t kHadToken = 4;
  static constexpr std::uint8_t kHoldsToken = 8;
  static constexpr std::uint8_t kClosed = 16;  ///< tour part finished
  static constexpr std::uint8_t kSource = 32;  ///< member source
  static constexpr std::uint8_t kSentToHead = 64;

  Message token(NodeId v, NodeId target) const {
    Message m;
    m.kind = MsgKind::kToken;
    m.sender = v;
    m.target = target;
    m.payload = payload_[v];
    return m;
  }

  /// Backbone: tour parent (kInvalidNode = none yet, or handed back).
  /// Member: its head.
  std::vector<NodeId> link_;
  /// Backbone: BT neighbors not sent to yet, in tour order.
  std::vector<std::vector<NodeId>> pending_;
};

}  // namespace

BroadcastRun runDfoBroadcast(const ClusterNet& net, NodeId source,
                             std::uint64_t payload,
                             const ProtocolOptions& options) {
  DSN_REQUIRE(net.contains(source), "broadcast source must be in the net");
  const Graph& g = net.graph();

  const auto backbone = net.backboneNodes();
  const bool sourceIsMember =
      net.status(source) == NodeStatus::kPureMember;
  const NodeId tourStart = sourceIsMember ? net.parent(source) : source;

  auto swarm = std::make_unique<DfoSwarm>(g.size());
  std::vector<NodeId> intended;
  for (NodeId v : net.netNodes()) {
    // Skip stale (crashed, unrepaired) entries.
    if (!g.isAlive(v)) continue;
    intended.push_back(v);
    if (net.isBackbone(v)) {
      std::vector<NodeId> btNeighbors;
      if (v != net.root()) btNeighbors.push_back(net.parent(v));
      for (NodeId c : net.children(v))
        if (net.isBackbone(c)) btNeighbors.push_back(c);
      // With a member source the tour start (its head) must wait for the
      // member's round-0 hand-off rather than transmit immediately.
      swarm->addBackbone(v, v == tourStart && !sourceIsMember, payload,
                         std::move(btNeighbors));
    } else {
      swarm->addMember(v, net.parent(v), v == source, payload);
    }
  }

  const Round schedule =
      static_cast<Round>(2 * (backbone.empty() ? 0 : backbone.size() - 1) +
                         (sourceIsMember ? 1 : 0) + 1);
  // The DFO baseline is single-channel.
  const SimConfig cfg = detail::simConfig(
      1,
      options.maxRounds > 0 ? options.maxRounds
                            : static_cast<Round>(4 * backbone.size() + 16),
      options);
  return detail::runPayloadSwarm(g, cfg, std::move(swarm), intended,
                                 intended, schedule, options);
}

}  // namespace dsn
