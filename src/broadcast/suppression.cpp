// Counter- and distance-based suppression flooding (Ni et al., "The
// broadcast storm problem"; Mehta & Kwak's survey in PAPERS.md).
//
// Both rivals schedule a relay after a random backoff like flooding, but
// instead of sleeping the backoff out they LISTEN through it and use the
// duplicates they overhear to cancel redundant relays:
//   - counter-based:  count copies heard before the relay slot; if the
//     count reaches `counterThreshold`, the neighborhood is already
//     covered and the relay is suppressed;
//   - distance-based: a copy heard from a transmitter closer than
//     `suppressRadius` means the own retransmission would add too little
//     extra coverage area, so the relay is cancelled. It needs
//     `ProtocolOptions::nodePositions` for every node.
//
// The listen-through-backoff is the honest energy cost of suppression
// schemes and is exactly the nextWake contract: pending deciders wake
// every round (they may receive), everyone else follows flooding's
// schedule. Backoff draws come from a per-node RNG seeded off the
// shared scheme seed, so runs are pure functions of (graph, source,
// positions, seed) and scheduler-independent. Both rivals run one state
// machine that differs only in its suppression test.

#include <memory>
#include <vector>

#include "broadcast/runner_detail.hpp"
#include "util/error.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace dsn {

namespace {

/// Counter- and distance-based suppression's one state machine. A node
/// that first hears the payload schedules a relay after a uniform backoff
/// in [1, window], listens through the backoff counting the copies that
/// count, and at its relay slot transmits unless `threshold` of them were
/// heard. The two rivals differ only in which copies count: every copy
/// (counter), or, when `positions` is set, a copy from a transmitter
/// within `radius` (distance, threshold 1) — and a distance node whose
/// first copy already counts is covered from close by and never relays.
/// Node v's backoff comes from an RNG seeded `seed ^ (v * salt)` at its
/// first receipt, the only place it draws.
class SuppressionSwarm final : public detail::FlatSwarm {
 public:
  SuppressionSwarm(std::size_t nodeCount, NodeId source,
                   std::uint64_t payload, Round maxListen, int window,
                   int threshold, const std::vector<Point2D>* positions,
                   double radius, std::uint64_t seed, std::uint64_t salt)
      : FlatSwarm(nodeCount, maxListen),
        window_(window),
        threshold_(threshold),
        positions_(positions),
        radius_(radius),
        seed_(seed),
        salt_(salt),
        relayRound_(nodeCount, -1),
        copies_(nodeCount, 0) {
    addHolder(source, true, payload);
    relayRound_[source] = 0;  // the source transmits immediately
  }

  Action onRound(NodeId v, Round r) override {
    std::uint8_t& f = flags_[v];
    if (relayRound_[v] >= 0 && r == relayRound_[v] && !(f & kDecided)) {
      f |= kDecided;
      if (copies_[v] < threshold_) {
        Message m;
        m.kind = MsgKind::kData;
        m.sender = v;
        m.payload = payload_[v];
        return Action::transmit(m);
      }
      return Action::sleep();  // suppressed
    }
    if (!hasPayload(v)) return listenWithinBudget(r);
    if (!(f & kDecided)) return Action::listen();  // overhear copies
    return Action::sleep();
  }

  void onReceive(NodeId v, const Message& m, Round r, Channel) override {
    if (m.kind != MsgKind::kData) return;
    const bool counts =
        positions_ == nullptr ||
        distance((*positions_)[v], (*positions_)[m.sender]) <= radius_;
    if (takePayload(v, m.payload, r)) {
      if (positions_ != nullptr && counts) {
        flags_[v] |= kDecided;  // covered from close by: never relay
        return;
      }
      copies_[v] = counts ? 1 : 0;
      Rng rng(seed_ ^ (static_cast<std::uint64_t>(v) * salt_));
      relayRound_[v] = r + 1 + static_cast<Round>(rng.uniform(
                                   static_cast<std::uint64_t>(window_)));
      return;
    }
    if (!(flags_[v] & kDecided) && counts) ++copies_[v];
  }

  bool isDone(NodeId v) const override {
    return hasPayload(v) && (flags_[v] & kDecided);
  }

  Round nextWake(NodeId v, Round now) const override {
    if (!hasPayload(v)) return nextWakeWithinBudget(now);
    if (!(flags_[v] & kDecided)) return now + 1;  // overhearing window
    return kNoWake;
  }

 private:
  /// The relay slot passed (sent or suppressed), or the node was
  /// covered at its first receipt.
  static constexpr std::uint8_t kDecided = 2;

  int window_;
  int threshold_;
  const std::vector<Point2D>* positions_;
  double radius_;
  std::uint64_t seed_;
  std::uint64_t salt_;
  std::vector<Round> relayRound_;  ///< scheduled relay slot (-1 = none)
  std::vector<int> copies_;        ///< counting copies heard so far
};

}  // namespace

namespace detail {

std::unique_ptr<FlatSwarm> makeSuppressionSwarm(
    BroadcastScheme scheme, const Graph& g, NodeId source,
    std::uint64_t payload, Round maxListen, const ProtocolOptions& options) {
  const ArenaTuning& a = options.arena;
  if (scheme == BroadcastScheme::kCounter) {
    DSN_REQUIRE(a.counterThreshold >= 1, "counter threshold must be >= 1");
    return std::make_unique<SuppressionSwarm>(
        g.size(), source, payload, maxListen, a.contentionWindow,
        a.counterThreshold, nullptr, 0.0, a.seed, 0x9FB21C651E98DF25ull);
  }
  DSN_REQUIRE(options.nodePositions.size() >= g.size(),
              "distance-based suppression needs a position for every node "
              "(SensorNetwork::broadcast fills ProtocolOptions::"
              "nodePositions; direct graph callers must set it)");
  DSN_REQUIRE(a.suppressRadius >= 0.0, "suppress radius must be >= 0");
  return std::make_unique<SuppressionSwarm>(
      g.size(), source, payload, maxListen, a.contentionWindow, 1,
      &options.nodePositions, a.suppressRadius, a.seed,
      0xE703C6EF372109E5ull);
}

}  // namespace detail

}  // namespace dsn
