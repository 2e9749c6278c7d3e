// Round accounting for the structural (non-broadcast) operations.
//
// The paper analyzes node-move-in / node-move-out and the time-slot
// procedures in communication rounds (Lemma 2/3, Theorem 2/3) but never
// interleaves them with broadcast traffic, so dsnet executes these
// operations directly against per-node knowledge and *meters* the rounds
// each message exchange would take, exactly as the procedures prescribe.
// DESIGN.md §2 documents this fidelity split.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dsn {

/// Eulerian-tour transmissions over a tree with `nodes` nodes: 2(|T|-1),
/// the unit RoundCost::eulerTour counts (move-out and crash recovery).
inline std::int64_t eulerRounds(std::size_t nodes) {
  return nodes > 1 ? 2 * (static_cast<std::int64_t>(nodes) - 1) : 0;
}

/// Cumulative round counts, split by the paper's cost components.
struct RoundCost {
  /// Neighbor discovery / attachment from [19]: O(d_new) expected rounds.
  /// We charge exactly d_new (the degree of the joining node).
  std::int64_t attach = 0;
  /// Time-slot recalculations: 1 + |C(y)| rounds per procedure run
  /// (Lemma 2(1)), including the runs that repair receiver conditions
  /// after a move-out or a crash (DESIGN.md §4).
  std::int64_t slotUpdate = 0;
  /// Root-path traffic: height updates (one message per hop) and carrying
  /// the revised largest b-slot to the root (2h per move-in, Theorem 2(2)).
  std::int64_t rootPath = 0;
  /// Eulerian tours over the detached subtree during node-move-out
  /// (2(|T|-1) transmissions per tour).
  std::int64_t eulerTour = 0;
  /// Multicast group/relay-list maintenance on the root path.
  std::int64_t groupMaintenance = 0;
  /// Slotted heartbeat rounds on the backbone (failure detection): one
  /// u-slot window of head beacons plus one up-slot window of member
  /// responses per sweep, whether or not anything is found dead.
  std::int64_t heartbeat = 0;

  std::int64_t total() const {
    return attach + slotUpdate + rootPath + eulerTour + groupMaintenance +
           heartbeat;
  }

  RoundCost& operator+=(const RoundCost& o) {
    attach += o.attach;
    slotUpdate += o.slotUpdate;
    rootPath += o.rootPath;
    eulerTour += o.eulerTour;
    groupMaintenance += o.groupMaintenance;
    heartbeat += o.heartbeat;
    return *this;
  }

  friend RoundCost operator-(RoundCost a, const RoundCost& b) {
    a.attach -= b.attach;
    a.slotUpdate -= b.slotUpdate;
    a.rootPath -= b.rootPath;
    a.eulerTour -= b.eulerTour;
    a.groupMaintenance -= b.groupMaintenance;
    a.heartbeat -= b.heartbeat;
    return a;
  }
};

}  // namespace dsn
