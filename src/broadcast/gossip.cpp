#include "broadcast/gossip.hpp"

#include <algorithm>
#include <memory>

#include "broadcast/flooding_baseline.hpp"
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
    DSN_REQUIRE(window >= 1, "contention window must be >= 1");
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

BroadcastRun runFloodingBroadcast(const Graph& g, NodeId source,
                                  std::uint64_t payload,
                                  const FloodingConfig& config,
                                  const ProtocolOptions& options) {
  DSN_REQUIRE(g.isAlive(source), "flood source must be live");
  const Round budget =
      detail::flatListenBudget(g, config.contentionWindow, options);
  return detail::runFlatRival(
      g, source, budget,
      std::make_unique<RelaySwarm>(g, source, payload, budget,
                                   config.contentionWindow,
                                   config.gossipProbability, 0.0,
                                   config.seed, 0x9E37ull),
      options);
}

BroadcastRun runGossipBroadcast(const Graph& g, NodeId source,
                                std::uint64_t payload,
                                const GossipConfig& config,
                                const ProtocolOptions& options) {
  DSN_REQUIRE(g.isAlive(source), "gossip source must be live");
  DSN_REQUIRE(config.probability >= 0.0 && config.probability <= 1.0,
              "gossip probability must be in [0,1]");
  DSN_REQUIRE(!config.adaptive || config.fanout > 0.0,
              "adaptive gossip fanout must be positive");
  const Round budget =
      detail::flatListenBudget(g, config.contentionWindow, options);
  return detail::runFlatRival(
      g, source, budget,
      std::make_unique<RelaySwarm>(
          g, source, payload, budget, config.contentionWindow,
          config.probability, config.adaptive ? config.fanout : 0.0,
          config.seed, 0xA24BAED4963EE407ull),
      options);
}

}  // namespace dsn
