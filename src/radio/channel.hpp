// Collision-resolution core of the radio model.
//
// Paper Section 3.1(4): nodes have no collision detection; a receiver
// gets a message in a round iff exactly one of its neighbors transmits in
// that round (per channel when k channels exist). This function is the
// single place that rule lives; the whole simulator and all protocol
// claims rest on it, so it is kept pure and exhaustively unit-tested.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "radio/action.hpp"
#include "radio/id_set.hpp"

namespace dsn {

/// One successful reception.
struct Delivery {
  NodeId receiver = kInvalidNode;
  NodeId transmitter = kInvalidNode;
  Channel channel = 0;
};

/// A (listener, channel) pair where >= 2 neighbors transmitted — the
/// listener hears noise and (no collision detection) cannot tell.
struct CollisionSite {
  NodeId listener = kInvalidNode;
  Channel channel = 0;
};

/// Outcome of resolving one round.
struct ChannelOutcome {
  std::vector<Delivery> deliveries;
  std::vector<CollisionSite> collisionSites;
  /// Number of transmissions that actually went on air this round.
  std::size_t transmissions = 0;

  std::size_t collisions() const { return collisionSites.size(); }
};

/// Resolves one synchronous round.
///
/// `actions[v]` is node v's action (index = node id; dead/absent nodes
/// must be kSleep). `channelCount` is k >= 1; a transmit action's channel
/// must be < k. Listeners tuned to kAllChannels are wide-band: they
/// resolve each channel independently and may receive up to k frames in
/// one round. A transmitting node never receives in the same round.
ChannelOutcome resolveRound(const Graph& g,
                            const std::vector<Action>& actions,
                            Channel channelCount);

/// Listen-column value of a node that does not listen this round.
inline constexpr Channel kNotListening = kAllChannels - 1;

/// One frame on air in a round: who sends it, on which channel, and what.
struct Transmission {
  NodeId transmitter = kInvalidNode;
  Channel channel = 0;
  Message message{};
};

class ResolveScratch;

/// Transmitter-driven variant of resolveRound for the active-set
/// simulator. The round comes as a listen column and transmit records
/// instead of one Action per node: `listen[v]` is node v's listen channel,
/// kAllChannels (wide-band) or kNotListening, and reads kNotListening for
/// every transmitter and every dead node; `transmissions` holds one
/// record per frame on air, each channel < k. Instead of scanning every
/// listener's neighborhood, it walks the neighborhoods of the
/// transmitters, tallies per-(listener, channel) counts in `scratch`, and
/// releases the listeners it touched from an ordered id set. Output is
/// bit-identical to resolveRound — deliveries and collision sites in
/// listener-ascending then channel-ascending order — but the cost is
/// O(sum of transmitter degrees + n/4096), not O(V + E), and the returned
/// outcome lives in `scratch`, so the steady state performs zero heap
/// allocations per round. Every transmit channel is checked before the
/// first count is written, and a listen channel out of range is refused
/// only after the tables are restored, so a refused round leaves
/// `scratch` as it found it.
const ChannelOutcome& resolveRoundActive(
    const CsrView& csr,
    const std::vector<Channel>& listen,
    const std::vector<Transmission>& transmissions,
    Channel channelCount,
    ResolveScratch& scratch);

/// Reusable per-run buffers for resolveRoundActive. prepare() once per
/// (topology, channel-count) pair; every table is restored to its pristine
/// state at the end of each resolve, refused or not, so rounds never
/// re-zero O(V·k) data.
///
/// The tables grow on demand: a resolve over a snapshot with more node
/// ids than the last prepare() (e.g. a node-move-in mid-campaign when the
/// scratch is reused across runs) re-sizes instead of indexing out of
/// bounds. Growth is an allocation, so steady-state rounds stay
/// allocation-free only while the topology does not outgrow the tables —
/// which is exactly the steady state.
class ResolveScratch {
 public:
  /// Sizes the tables for `nodeCount` node ids and `channelCount`
  /// channels. Allocates here so resolve calls never do. Idempotent and
  /// never shrinks: preparing for fewer nodes keeps the larger tables.
  void prepare(std::size_t nodeCount, Channel channelCount);

  /// The outcome buffer of the most recent resolveRoundActive call.
  const ChannelOutcome& outcome() const { return outcome_; }

 private:
  friend const ChannelOutcome& resolveRoundActive(
      const CsrView&, const std::vector<Channel>&,
      const std::vector<Transmission>&, Channel, ResolveScratch&);

  /// Transmitting-neighbor count per (listener * channelCount + channel).
  std::vector<std::uint32_t> count_;
  /// The transmitter that set count_ to 1 (valid while count_ == 1).
  std::vector<NodeId> unique_;
  /// Listeners adjacent to at least one transmitter this round.
  IdSet touchedIds_;
  ChannelOutcome outcome_;
  std::size_t nodeCount_ = 0;
  Channel channelCount_ = 0;
};

}  // namespace dsn
