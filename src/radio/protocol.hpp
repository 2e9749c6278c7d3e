// Interface every per-node protocol state machine implements.
//
// The simulator drives all nodes in lock-step rounds:
//   1. every live node's `onRound(r)` returns its Action for round r;
//   2. the channel resolves which transmissions are received where;
//   3. every successful reception is delivered via `onReceive`.
// A protocol signals local completion via `isDone()`; the simulator stops
// when every live node is done (or the round budget runs out).
#pragma once

#include "radio/action.hpp"
#include "radio/message.hpp"
#include "util/types.hpp"

namespace dsn {

/// Sentinel for NodeProtocol::nextWake: the node sleeps forever (no
/// further onRound calls, and — since a sleeping node never listens —
/// no further onReceive either).
inline constexpr Round kNoWake = std::numeric_limits<Round>::max();

/// One node's protocol logic. Implementations keep only *local* state —
/// the per-node knowledge the paper grants (Section 5, knowledge I/II).
class NodeProtocol {
 public:
  virtual ~NodeProtocol() = default;

  /// Decide this node's action for round `r`. Called for every round the
  /// node is scheduled awake (see nextWake) while it is alive.
  virtual Action onRound(Round r) = 0;

  /// A frame was received (exactly one neighbor transmitted on `channel`
  /// in a round where this node was listening).
  virtual void onReceive(const Message& m, Round r, Channel channel) = 0;

  /// True once this node will never transmit again and its protocol role
  /// is complete (it may still be reachable as a listener).
  virtual bool isDone() const = 0;

  /// Active-set scheduling hint: the earliest round > `now` at which
  /// onRound must be called again (kNoWake = never). The simulator is
  /// free to skip onRound for every round in (now, nextWake(now)), so an
  /// override promises that onRound would have returned a sleep action
  /// with NO internal state change on each skipped round — including
  /// deadline transitions (missed windows, lapsed duties), which count as
  /// state changes and must land on a wake round. `now` is the round just
  /// processed, or -1 before the first round. Called after the round's
  /// deliveries, so overrides may consult state updated by onReceive.
  /// The default wakes every round, reproducing the pre-hint schedule
  /// for protocols without an override.
  virtual Round nextWake(Round now) const { return now + 1; }
};

/// Structure-of-arrays counterpart of NodeProtocol: ONE object drives
/// every member node, keyed by node id. Implementations keep per-node
/// state in flat arrays instead of one heap object per node, which is
/// what makes million-node runs fit in cache (DESIGN.md §14).
///
/// Contracts are per-node NodeProtocol contracts verbatim (isDone
/// monotone, nextWake sleep-is-pure, etc.).
class SwarmProtocol {
 public:
  virtual ~SwarmProtocol() = default;

  virtual Action onRound(NodeId v, Round r) = 0;
  virtual void onReceive(NodeId v, const Message& m, Round r,
                         Channel channel) = 0;
  virtual bool isDone(NodeId v) const = 0;
  virtual Round nextWake(NodeId /*v*/, Round now) const { return now + 1; }
};

}  // namespace dsn
