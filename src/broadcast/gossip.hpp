// Probabilistic gossip rivals (Mehta & Kwak; Haas/Halpern/Li gossip).
//
// Two variants of the classic storm tamer share one state machine:
//   - fixed p:            every served node relays once with probability p;
//   - density-adaptive:   p_v = min(1, fanout / deg(v)), so each relay
//                         expects to hand the payload to ~`fanout` new
//                         neighbors regardless of local density.
//
// Both keep flooding's contention backoff (uniform delay in [1, window])
// and its exact nextWake schedule: a served node sleeps out its backoff
// and wakes only for the relay round, so the protocol runs unmodified on
// the active-set scheduler. The relay coin is flipped ONCE,
// at first receipt, from a per-node RNG seeded `seed ^ f(self)` — which
// is what makes a gossip run a pure function of (graph, source, seed).
// Blind flooding (flooding_baseline.hpp) is the same machine with its
// own seed salt.
#pragma once

#include "broadcast/run_result.hpp"
#include "graph/graph.hpp"

namespace dsn {

struct GossipConfig {
  /// Fixed relay probability (ignored when adaptive is set).
  double probability = 0.65;
  /// Density-adaptive mode: relay with min(1, fanout / degree).
  bool adaptive = false;
  double fanout = 3.5;
  /// Backoff window: a relay picks a uniform delay in [1, window].
  int contentionWindow = 8;
  /// RNG seed for relay coins and backoff draws.
  std::uint64_t seed = 0x6055171Bull;
};

/// Runs a gossip broadcast of `payload` from `source` over the flat
/// graph `g` (only nodes reachable from the source are intended).
BroadcastRun runGossipBroadcast(const Graph& g, NodeId source,
                                std::uint64_t payload,
                                const GossipConfig& config = {},
                                const ProtocolOptions& options = {});

}  // namespace dsn
