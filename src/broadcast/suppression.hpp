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
//     extra coverage area, so the relay is cancelled.
//
// The listen-through-backoff is the honest energy cost of suppression
// schemes and is exactly the nextWake contract: pending deciders wake
// every round (they may receive), everyone else follows flooding's
// schedule. Backoff draws come from a per-node RNG seeded off the
// shared scheme seed, so runs are pure functions of (graph, source,
// positions, seed) and scheduler-independent. Both rivals run one state
// machine that differs only in its suppression test.
#pragma once

#include "broadcast/run_result.hpp"
#include "graph/graph.hpp"

namespace dsn {

struct CounterConfig {
  /// Suppress the relay once this many copies were heard before the slot.
  int counterThreshold = 3;
  /// Backoff window: a relay picks a uniform delay in [1, window].
  int contentionWindow = 8;
  std::uint64_t seed = 0xC0047E12ull;
};

struct DistanceConfig {
  /// Hearing a copy from a transmitter at distance <= this cancels the
  /// relay (the own disk adds too little area).
  double suppressRadius = 25.0;
  int contentionWindow = 8;
  std::uint64_t seed = 0xD157A4CEull;
};

BroadcastRun runCounterBroadcast(const Graph& g, NodeId source,
                                 std::uint64_t payload,
                                 const CounterConfig& config = {},
                                 const ProtocolOptions& options = {});

/// Distance-based suppression needs `options.nodePositions` filled for
/// every node (SensorNetwork::broadcast does this automatically).
BroadcastRun runDistanceBroadcast(const Graph& g, NodeId source,
                                  std::uint64_t payload,
                                  const DistanceConfig& config = {},
                                  const ProtocolOptions& options = {});

}  // namespace dsn
