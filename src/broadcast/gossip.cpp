// Structure-free probabilistic flooding — the "broadcast storm"
// baseline — and the probabilistic gossip rivals (Mehta & Kwak;
// Haas/Halpern/Li gossip).
//
// The paper's introduction motivates structured broadcast against naive
// flooding ([16] Ni et al., "The broadcast storm problem"): every node
// that hears the message retransmits it once, after a random backoff
// within a contention window. No clustering, no TDM, no collision
// avoidance — just the flat graph and luck. This baseline makes the
// paper's comparison concrete: at small windows the storm collides
// itself to death; at large windows it is slow; CFF gets both speed and
// determinism from the structure.
//
// Two gossip variants tame the storm with the same state machine:
//   - fixed p:            every served node relays once with probability p;
//   - density-adaptive:   p_v = min(1, fanout / deg(v)), so each relay
//                         expects to hand the payload to ~`fanout` new
//                         neighbors regardless of local density.
//
// All three keep flooding's contention backoff (uniform delay in
// [1, window]) and its exact nextWake schedule: a served node sleeps out
// its backoff and wakes only for the relay round, so the protocol runs
// unmodified on the active-set scheduler. The relay coin is flipped ONCE,
// at first receipt, from a per-node RNG seeded `seed ^ f(self)` — which
// is what makes a gossip run a pure function of (graph, source, seed).
// Blind flooding is gossip with probability 1 and its own seed salt.

#include <algorithm>
#include <memory>

#include "broadcast/runner_detail.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsn {

namespace {

/// Flooding's and gossip's one state machine. A node that first hears
/// the payload flips its relay coin once and, on heads, relays once
/// after a uniform backoff in [1, window], sleeping until then; the
/// source relays in round 0. Node v's coin and backoff come from an RNG
/// seeded `seed ^ (v * salt)` at its first receipt, the only place it
/// draws.
class RelaySwarm final : public detail::FlatSwarm {
 public:
  /// A node's relay probability is `probability`, or with a positive
  /// `fanout`, min(1, fanout / degree) on `g`.
  RelaySwarm(const Graph& g, NodeId source, std::uint64_t payload,
             Round maxListen, int window, double probability,
             double fanout, std::uint64_t seed, std::uint64_t salt)
      : FlatSwarm(g.size(), maxListen),
        g_(g),
        window_(window),
        probability_(probability),
        fanout_(fanout),
        seed_(seed),
        salt_(salt),
        relayRound_(g.size(), -1) {
    addHolder(source, true, payload);
    relayRound_[source] = 0;  // the source always transmits, at round 0
  }

  Action onRound(NodeId v, Round r) override {
    if (relayRound_[v] >= 0 && r == relayRound_[v] && !(flags_[v] & kRelayed)) {
      flags_[v] |= kRelayed;
      Message m;
      m.kind = MsgKind::kData;
      m.sender = v;
      m.payload = payload_[v];
      return Action::transmit(m);
    }
    if (!hasPayload(v)) return listenWithinBudget(r);
    return Action::sleep();  // served: backoff (if any) is slept out
  }

  void onReceive(NodeId v, const Message& m, Round r, Channel) override {
    if (m.kind != MsgKind::kData) return;
    // A duplicate changes nothing: the coin was already flipped.
    if (!takePayload(v, m.payload, r)) return;
    Rng rng(seed_ ^ (static_cast<std::uint64_t>(v) * salt_));
    if (rng.chance(relayProbability(v)))
      relayRound_[v] = r + 1 + static_cast<Round>(rng.uniform(
                                   static_cast<std::uint64_t>(window_)));
  }

  bool isDone(NodeId v) const override {
    return hasPayload(v) && (relayRound_[v] < 0 || (flags_[v] & kRelayed));
  }

  Round nextWake(NodeId v, Round now) const override {
    if (relayRound_[v] >= 0 && !(flags_[v] & kRelayed))
      return relayRound_[v] > now ? relayRound_[v] : now + 1;
    if (!hasPayload(v)) return nextWakeWithinBudget(now);
    return kNoWake;  // served, no relay duty pending
  }

 private:
  static constexpr std::uint8_t kRelayed = 2;

  double relayProbability(NodeId v) const {
    if (fanout_ <= 0.0) return probability_;
    const auto deg =
        static_cast<double>(std::max<std::size_t>(1, g_.degree(v)));
    return std::min(1.0, fanout_ / deg);
  }

  const Graph& g_;
  int window_;
  double probability_;
  double fanout_;
  std::uint64_t seed_;
  std::uint64_t salt_;
  std::vector<Round> relayRound_;  ///< scheduled relay (-1 = none)
};

}  // namespace

namespace detail {

std::unique_ptr<FlatSwarm> makeRelaySwarm(BroadcastScheme scheme,
                                          const Graph& g, NodeId source,
                                          std::uint64_t payload,
                                          Round maxListen,
                                          const ProtocolOptions& options) {
  const ArenaTuning& a = options.arena;
  if (scheme == BroadcastScheme::kFlooding)
    return std::make_unique<RelaySwarm>(g, source, payload, maxListen,
                                        a.contentionWindow, 1.0, 0.0, a.seed,
                                        0x9E37ull);
  DSN_REQUIRE(a.gossipProbability >= 0.0 && a.gossipProbability <= 1.0,
              "gossip probability must be in [0,1]");
  const bool adaptive = scheme == BroadcastScheme::kGossipAdaptive;
  DSN_REQUIRE(!adaptive || a.adaptiveFanout > 0.0,
              "adaptive gossip fanout must be positive");
  return std::make_unique<RelaySwarm>(
      g, source, payload, maxListen, a.contentionWindow, a.gossipProbability,
      adaptive ? a.adaptiveFanout : 0.0, a.seed, 0xA24BAED4963EE407ull);
}

}  // namespace detail

}  // namespace dsn
