#include "broadcast/convergecast.hpp"

#include <algorithm>
#include <memory>

#include "broadcast/runner_detail.hpp"
#include "broadcast/tdm.hpp"
#include "radio/simulator.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// The gather wave's swarm, keyed by node id. A node listens through its
/// children's depth window until every child reported, and sends its
/// partial aggregate (own value + everything its children reported) to
/// its parent once, at its up-slot in its own depth's window. The root
/// and unslotted nodes never send. Children lists are borrowed from the
/// net, which outlives the run.
class GatherSwarm final : public SwarmProtocol {
 public:
  GatherSwarm(std::size_t nodeCount, TimeSlot window, Channel channels,
              int maxDepth)
      : window_(window),
        tdm_(window == 0 ? 1 : window, channels),
        maxDepth_(maxDepth),
        parent_(nodeCount, kInvalidNode),
        depth_(nodeCount, 0),
        upSlot_(nodeCount, kNoSlot),
        children_(nodeCount, nullptr),
        sum_(nodeCount, 0),
        count_(nodeCount, 1),
        heard_(nodeCount, 0),
        flags_(nodeCount, 0) {}

  /// Registers node `v` (parent kInvalidNode and upSlot kNoSlot at the
  /// root) with its reading.
  void addMember(NodeId v, NodeId parent, Depth depth, TimeSlot upSlot,
                 const std::vector<NodeId>& children, std::uint64_t value) {
    parent_[v] = parent;
    depth_[v] = depth;
    upSlot_[v] = upSlot;
    children_[v] = &children;
    sum_[v] = value;
    if (depth == 0 || upSlot == kNoSlot) flags_[v] |= kSent;
  }

  Action onRound(NodeId v, Round r) override {
    const std::size_t kids = children_[v]->size();
    if (kids > 0 && r >= childWindowEnd(v)) flags_[v] |= kWindowClosed;
    // Listen through the children's window until every child reported.
    if (kids > 0 && heard_[v] < kids && r >= childWindowStart(v) &&
        r < childWindowEnd(v))
      return Action::listen();
    if (!(flags_[v] & kSent)) {
      const Round tx = transmitRound(v);
      if (r == tx) {
        flags_[v] |= kSent;
        Message m;
        m.kind = MsgKind::kData;
        m.sender = v;
        m.target = parent_[v];
        m.slot = upSlot_[v];
        m.windowSize = window_;
        m.depth = depth_[v];
        m.payload = sum_[v];
        m.sequence = count_[v];
        return Action::transmit(m, tdm_.channelOf(upSlot_[v]));
      }
      if (r > tx) flags_[v] |= kSent;  // schedule slipped past (defensive)
    }
    return Action::sleep();
  }

  void onReceive(NodeId v, const Message& m, Round, Channel) override {
    if (m.kind != MsgKind::kData || m.target != v) return;
    // Only tree children address us; count each at most once.
    const std::vector<NodeId>& kids = *children_[v];
    if (std::find(kids.begin(), kids.end(), m.sender) == kids.end()) return;
    sum_[v] += m.payload;
    count_[v] += m.sequence;
    ++heard_[v];
  }

  bool isDone(NodeId v) const override {
    if (!(flags_[v] & kSent)) return false;
    const std::size_t kids = children_[v]->size();
    return kids == 0 || heard_[v] == kids || (flags_[v] & kWindowClosed);
  }

  std::uint64_t partialSum(NodeId v) const { return sum_[v]; }
  std::uint32_t contributors(NodeId v) const { return count_[v]; }

 private:
  static constexpr std::uint8_t kSent = 1;
  static constexpr std::uint8_t kWindowClosed = 2;

  // The window of depth j runs at index (maxDepth - j); children are at
  // depth + 1.
  Round childWindowStart(NodeId v) const {
    return static_cast<Round>(maxDepth_ - (depth_[v] + 1)) *
           tdm_.windowLength();
  }
  Round childWindowEnd(NodeId v) const {
    return childWindowStart(v) + tdm_.windowLength();
  }
  Round transmitRound(NodeId v) const {
    return static_cast<Round>(maxDepth_ - depth_[v]) * tdm_.windowLength() +
           tdm_.roundOffset(upSlot_[v]);
  }

  TimeSlot window_;  ///< W — the root's known largest up-slot
  TdmMap tdm_;
  int maxDepth_;  ///< deepest level; its window runs first
  std::vector<NodeId> parent_;
  std::vector<Depth> depth_;
  std::vector<TimeSlot> upSlot_;
  std::vector<const std::vector<NodeId>*> children_;
  std::vector<std::uint64_t> sum_;
  std::vector<std::uint32_t> count_;  ///< contributors, self included
  std::vector<std::size_t> heard_;    ///< children heard so far
  std::vector<std::uint8_t> flags_;
};

}  // namespace

GatherResult runConvergecast(const ClusterNet& net,
                             const std::vector<std::uint64_t>& values,
                             const ProtocolOptions& options) {
  DSN_REQUIRE(net.netSize() > 0, "convergecast on an empty net");
  const Graph& g = net.graph();

  int maxDepth = 0;
  for (NodeId v : net.netNodes())
    maxDepth = std::max(maxDepth, static_cast<int>(net.depth(v)));

  const TimeSlot window = net.rootMaxUpSlot();
  const TdmMap tdm(window == 0 ? 1 : window, options.channels);
  const Round schedule =
      static_cast<Round>(maxDepth) * tdm.windowLength() +
      tdm.windowLength();

  RadioSimulator sim(
      g, detail::simConfig(
             options.channels,
             options.maxRounds > 0 ? options.maxRounds : schedule + 4,
             options));
  detail::applyFailures(sim, options);

  auto swarm = std::make_unique<GatherSwarm>(g.size(), window,
                                             options.channels, maxDepth);
  std::vector<NodeId> members;
  bool rootAlive = false;
  for (NodeId v : net.netNodes()) {
    // Skip stale (crashed, unrepaired) entries.
    if (!g.isAlive(v)) continue;
    members.push_back(v);
    const bool isRoot = v == net.root();
    rootAlive = rootAlive || isRoot;
    swarm->addMember(v, isRoot ? kInvalidNode : net.parent(v), net.depth(v),
                     isRoot ? kNoSlot : net.upSlot(v), net.children(v),
                     v < values.size() ? values[v] : 0);
  }
  DSN_CHECK(rootAlive, "root protocol missing");
  const GatherSwarm& gather = *swarm;
  sim.setSwarm(std::move(swarm), members);

  GatherResult result;
  result.expected = members.size();
  result.scheduleLength = schedule;
  result.sim = sim.run();
  result.aggregate = gather.partialSum(net.root());
  result.contributors = gather.contributors(net.root());
  result.maxAwakeRounds = sim.energy().maxAwakeRounds();
  result.meanAwakeRounds = sim.energy().meanAwakeRounds();
  result.transmissions = result.sim.totalTransmissions;
  result.collisions = result.sim.totalCollisions;
  if (sim.trace().enabled()) result.trace = sim.trace();
  return result;
}

}  // namespace dsn
