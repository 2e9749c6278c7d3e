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
#pragma once

#include "broadcast/run_result.hpp"
#include "graph/graph.hpp"
#include "radio/protocol.hpp"
#include "util/rng.hpp"

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

/// Per-node gossip state machine. `relayProbability` is this node's
/// resolved coin bias (the runner folds the adaptive rule into it).
class GossipNodeProtocol : public NodeProtocol, public BroadcastEndpoint {
 public:
  GossipNodeProtocol(NodeId self, bool isSource, double relayProbability,
                     const GossipConfig& cfg, std::uint64_t payload,
                     Round maxListenRounds);

  Action onRound(Round r) override;
  void onReceive(const Message& m, Round r, Channel channel) override;
  bool isDone() const override;
  Round nextWake(Round now) const override;

  bool hasPayload() const override { return hasPayload_; }
  Round payloadRound() const override { return payloadRound_; }

 private:
  NodeId self_;
  double relayProbability_;
  int contentionWindow_;
  Rng rng_;
  bool hasPayload_;
  Round payloadRound_;
  Round relayRound_ = -1;  ///< scheduled retransmission (-1 = none)
  bool relayed_ = false;
  Round maxListenRounds_;
  std::uint64_t payload_;
};

/// Runs a gossip broadcast of `payload` from `source` over the flat
/// graph `g` (only nodes reachable from the source are intended).
BroadcastRun runGossipBroadcast(const Graph& g, NodeId source,
                                std::uint64_t payload,
                                const GossipConfig& config = {},
                                const ProtocolOptions& options = {});

}  // namespace dsn
