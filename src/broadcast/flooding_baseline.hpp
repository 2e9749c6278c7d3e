// Structure-free probabilistic flooding — the "broadcast storm" baseline.
//
// The paper's introduction motivates structured broadcast against naive
// flooding ([16] Ni et al., "The broadcast storm problem"): every node
// that hears the message retransmits it once, after a random backoff
// within a contention window, with a gossip probability p. No clustering,
// no TDM, no collision avoidance — just the flat graph and luck.
//
// This baseline makes the paper's comparison concrete: at small windows
// the storm collides itself to death; at large windows it is slow; CFF
// gets both speed and determinism from the structure.
//
// Flooding is gossip with its own per-node seed salt: both run the one
// relay state machine in gossip.cpp.
#pragma once

#include "broadcast/run_result.hpp"
#include "graph/graph.hpp"

namespace dsn {

struct FloodingConfig {
  /// Retransmission probability (1.0 = plain flooding).
  double gossipProbability = 1.0;
  /// Backoff window: a relay picks a uniform delay in [1, window].
  int contentionWindow = 8;
  /// RNG seed for the backoff draws.
  std::uint64_t seed = 0xF100D;
};

/// Runs a probabilistic flood of `payload` from `source` over the flat
/// graph `g` (only nodes reachable from the source are intended).
BroadcastRun runFloodingBroadcast(const Graph& g, NodeId source,
                                  std::uint64_t payload,
                                  const FloodingConfig& config = {},
                                  const ProtocolOptions& options = {});

}  // namespace dsn
