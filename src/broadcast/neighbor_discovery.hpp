// Randomized neighbor discovery — the [19] attach handshake.
//
// node-move-in assumes the joining node can learn its neighborhood in
// O(d_new) *expected* rounds using a randomized protocol (paper
// Section 5.1 / Theorem 2(1), citing [19]). dsnet charges exactly d_new
// rounds per attach (DESIGN.md §2); this module implements the actual
// handshake on the radio simulator so that charge can be validated. It
// runs in cycles; a cycle with window W takes 1 + 2W rounds:
//
//   1. the joiner transmits HELLO carrying W;
//   2. every neighbor not yet acknowledged picks a uniform slot j in
//      [0, W) and replies, addressed to the joiner, in the cycle's round
//      1 + 2j;
//   3. the joiner ACKs each reply it heard in the next round (2 + 2j).
//      Replies that collide go unheard and unacknowledged; their senders
//      retry in the next cycle;
//   4. a cycle in which the joiner heard any reply keeps W; a silent
//      cycle doubles it (up to 1024). Without collision detection a
//      fully collided cycle looks silent, so the joiner stops only after
//      two silent cycles at W >= 16 once it has heard someone, or at the
//      first silent cycle at W >= 64 while it has heard no one. A
//      neighbor that hears no HELLO for a long timeout gives up.
//
// Expected rounds grow linearly in the true neighbor count — the
// `tbl_discovery` bench measures the constant.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/types.hpp"

namespace dsn {

struct DiscoveryConfig {
  /// Initial contention window (doubles after each silent cycle, up to
  /// 1024).
  int initialWindow = 2;
  /// RNG seed for the neighbors' slot draws.
  std::uint64_t seed = 0xD15C0;
  /// Safety stop.
  Round maxRounds = 100000;
};

struct DiscoveryResult {
  /// Neighbor ids the joiner learned, in discovery order.
  std::vector<NodeId> discovered;
  /// Total rounds until the handshake closed.
  Round rounds = 0;
  /// True when every live neighbor was discovered.
  bool complete = false;
  std::size_t transmissions = 0;
  std::size_t collisions = 0;
};

/// Runs the discovery handshake for `joiner` on graph `g` (the joiner
/// and its radio edges must already exist).
DiscoveryResult runNeighborDiscovery(const Graph& g, NodeId joiner,
                                     const DiscoveryConfig& config = {});

}  // namespace dsn
