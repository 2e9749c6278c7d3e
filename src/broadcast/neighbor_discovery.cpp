#include "broadcast/neighbor_discovery.hpp"

#include <algorithm>
#include <memory>

#include "radio/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

// Cycle layout (joiner-relative): round 0 = HELLO carrying the window
// size W; then W slot pairs — round 1+2j: neighbors contend in slot j,
// round 2+2j: the joiner ACKs the sender it heard (if any). The next
// cycle starts right after (see the header for how W and the stop rule
// evolve). Frame meaning rides in Message::sequence.
constexpr std::uint32_t kHello = 0;
constexpr std::uint32_t kAck = 1;
constexpr std::uint32_t kReply = 2;
/// Hard cap on the contention window's growth.
constexpr int kMaxWindow = 1024;

/// The handshake's swarm: the joiner and its neighbors, the responders.
class DiscoverySwarm final : public SwarmProtocol {
 public:
  DiscoverySwarm(std::size_t nodeCount, NodeId joiner,
                 const DiscoveryConfig& cfg)
      : joiner_(joiner),
        cfg_(cfg),
        window_(cfg.initialWindow),
        helloTimeout_(2 * (1 + 2 * static_cast<Round>(kMaxWindow)) + 8),
        rng_(nodeCount),
        replyRound_(nodeCount, -1),
        lastHello_(nodeCount, 0),
        flags_(nodeCount, 0) {
    DSN_REQUIRE(cfg.initialWindow >= 1, "window must be >= 1");
  }

  /// Registers neighbor `u` as a responder with its own slot RNG.
  void addResponder(NodeId u) {
    rng_[u] = Rng(cfg_.seed ^ (static_cast<std::uint64_t>(u) * 0x9E3779B9ull));
  }

  Action onRound(NodeId v, Round r) override {
    return v == joiner_ ? joinerRound(r) : responderRound(v, r);
  }

  void onReceive(NodeId v, const Message& m, Round r, Channel) override {
    if (m.kind != MsgKind::kControl) return;
    if (v == joiner_) {
      if (m.sequence != kReply) return;
      heardThisCycle_ = true;
      pendingAck_ = m.sender;
      if (std::find(discovered_.begin(), discovered_.end(), m.sender) ==
          discovered_.end())
        discovered_.push_back(m.sender);
      return;
    }
    if (m.sequence == kHello && m.sender == joiner_) {
      // Contend in a uniform slot of this cycle's window.
      const auto w = static_cast<std::uint64_t>(m.windowSize);
      const Round slot = static_cast<Round>(rng_[v].uniform(w));
      replyRound_[v] = r + 1 + 2 * slot;
      lastHello_[v] = r;
    } else if (m.sequence == kAck && m.target == v) {
      flags_[v] |= kAcked;
    }
  }

  bool isDone(NodeId v) const override {
    return v == joiner_ ? joinerDone_ : flags_[v] != 0;
  }

  const std::vector<NodeId>& discovered() const { return discovered_; }
  bool acked(NodeId u) const { return (flags_[u] & kAcked) != 0; }

 private:
  static constexpr int kSilentCyclesToStop = 2;
  static constexpr int kEmptyCutoffWindow = 64;
  static constexpr int kConclusiveWindow = 16;
  static constexpr std::uint8_t kAcked = 1;
  static constexpr std::uint8_t kGaveUp = 2;

  Action joinerRound(Round r) {
    const Round offset = r - cycleStart_;
    if (offset == 0) {
      heardThisCycle_ = false;
      Message hello;
      hello.kind = MsgKind::kControl;
      hello.sender = joiner_;
      hello.windowSize = static_cast<TimeSlot>(window_);
      hello.sequence = kHello;
      return Action::transmit(hello);
    }
    const Round cycleLen = 1 + 2 * static_cast<Round>(window_);
    if (offset < cycleLen) {
      const bool ackRound = (offset % 2) == 0;  // offsets 2,4,...
      if (!ackRound) return Action::listen();
      if (pendingAck_ == kInvalidNode) return Action::sleep();
      Message ack;
      ack.kind = MsgKind::kControl;
      ack.sender = joiner_;
      ack.target = pendingAck_;
      ack.sequence = kAck;
      pendingAck_ = kInvalidNode;
      return Action::transmit(ack);
    }
    // Cycle finished. Without collision detection a fully-collided
    // window is indistinguishable from real silence, so:
    //  * while NOTHING has been discovered, silence never concludes —
    //    the window doubles until a "no one out there" cutoff (a large
    //    crowd cannot stay fully collided once W passes its size);
    //  * once responders have been heard, the window is evidently
    //    adequate: keep it on fruitful cycles, double it on silent ones,
    //    and conclude after a short silent streak.
    if (!heardThisCycle_) {
      if (discovered_.empty()) {
        if (window_ >= kEmptyCutoffWindow) {
          joinerDone_ = true;
          return Action::sleep();
        }
      } else if (window_ >= kConclusiveWindow &&
                 ++silentStreak_ >= kSilentCyclesToStop) {
        // Two all-collided cycles in a row at W >= 16 have probability
        // <= (2/W)^2 even for two stragglers — safe to conclude.
        joinerDone_ = true;
        return Action::sleep();
      }
      window_ = std::min(window_ * 2, kMaxWindow);
    } else {
      silentStreak_ = 0;  // fruitful window: keep its size
    }
    cycleStart_ = r;
    return joinerRound(r);  // re-enter as the HELLO round of the new cycle
  }

  Action responderRound(NodeId u, Round r) {
    if (flags_[u] != 0) return Action::sleep();  // acked or gave up
    // The joiner concludes after its silent cycles; a responder it never
    // heard must eventually stop burning energy too.
    if (r - lastHello_[u] > helloTimeout_) {
      flags_[u] |= kGaveUp;
      return Action::sleep();
    }
    if (replyRound_[u] >= 0 && r == replyRound_[u]) {
      Message reply;
      reply.kind = MsgKind::kControl;
      reply.sender = u;
      reply.target = joiner_;
      reply.sequence = kReply;
      return Action::transmit(reply);
    }
    return Action::listen();  // awake for HELLOs and ACKs until acked
  }

  NodeId joiner_;
  DiscoveryConfig cfg_;
  // Joiner state.
  int window_;
  Round cycleStart_ = 0;
  int silentStreak_ = 0;
  bool heardThisCycle_ = false;
  bool joinerDone_ = false;
  NodeId pendingAck_ = kInvalidNode;
  std::vector<NodeId> discovered_;
  // Responder state, keyed by node id.
  Round helloTimeout_;
  std::vector<Rng> rng_;
  std::vector<Round> replyRound_;
  std::vector<Round> lastHello_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace

DiscoveryResult runNeighborDiscovery(const Graph& g, NodeId joiner,
                                     const DiscoveryConfig& config) {
  DSN_REQUIRE(g.isAlive(joiner), "joiner must be live");

  SimConfig cfg;
  cfg.maxRounds = config.maxRounds;

  RadioSimulator sim(g, cfg);
  auto swarm = std::make_unique<DiscoverySwarm>(g.size(), joiner, config);
  std::vector<NodeId> members{joiner};
  for (NodeId u : g.neighbors(joiner)) {
    swarm->addResponder(u);
    members.push_back(u);
  }
  const DiscoverySwarm& handshake = *swarm;
  sim.setSwarm(std::move(swarm), members);

  const SimResult simResult = sim.run();

  DiscoveryResult result;
  result.discovered = handshake.discovered();
  result.rounds = simResult.rounds;
  result.transmissions = simResult.totalTransmissions;
  result.collisions = simResult.totalCollisions;
  result.complete = std::all_of(
      members.begin() + 1, members.end(),
      [&handshake](NodeId u) { return handshake.acked(u); });
  return result;
}

}  // namespace dsn
