// The one interface every protocol state machine implements.
//
// A protocol is a per-node state machine over local knowledge (Section 5,
// knowledge I/II), but ONE SwarmProtocol object drives every member node
// of a run, keyed by node id, with per-node state held in flat arrays
// (DESIGN.md §14). The simulator drives the members in lock-step rounds:
//   1. every live member's `onRound(v, r)` returns its Action for round r;
//   2. the channel resolves which transmissions are received where;
//   3. every successful reception is delivered via `onReceive`.
// A member signals local completion via `isDone(v)`; the simulator stops
// when every live member is done (or the round budget runs out).
#pragma once

#include "radio/action.hpp"
#include "radio/message.hpp"
#include "util/types.hpp"

namespace dsn {

/// Sentinel for SwarmProtocol::nextWake: the node sleeps forever (no
/// further onRound calls, and — since a sleeping node never listens —
/// no further onReceive either).
inline constexpr Round kNoWake = std::numeric_limits<Round>::max();

/// Every member node's protocol logic, keyed by node id.
/// Implementations keep only each node's *local* state.
class SwarmProtocol {
 public:
  virtual ~SwarmProtocol() = default;

  /// Decide node `v`'s action for round `r`. Called for every round the
  /// node is scheduled awake (see nextWake) while it is alive.
  virtual Action onRound(NodeId v, Round r) = 0;

  /// Node `v` received a frame (exactly one neighbor transmitted on
  /// `channel` in a round where `v` was listening).
  virtual void onReceive(NodeId v, const Message& m, Round r,
                         Channel channel) = 0;

  /// True once node `v` will never transmit again and its protocol role
  /// is complete (it may still be reachable as a listener). Monotone.
  virtual bool isDone(NodeId v) const = 0;

  /// Active-set scheduling hint: the earliest round > `now` at which
  /// onRound(v, ·) must be called again (kNoWake = never). The simulator
  /// is free to skip onRound for every round in (now, nextWake(v, now)),
  /// so an override promises that onRound would have returned a sleep
  /// action with NO internal state change on each skipped round —
  /// including deadline transitions (missed windows, lapsed duties),
  /// which count as state changes and must land on a wake round. `now` is
  /// the round just processed, or -1 before the first round. Called after
  /// the round's deliveries, so overrides may consult state updated by
  /// onReceive. The default wakes every round.
  virtual Round nextWake(NodeId /*v*/, Round now) const { return now + 1; }
};

}  // namespace dsn
