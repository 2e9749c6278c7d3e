// Options and result records shared by every broadcast/multicast run,
// and the delivery state every broadcast swarm keeps (PayloadSwarm).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "radio/simulator.hpp"
#include "util/error.hpp"
#include "util/geometry.hpp"
#include "util/types.hpp"

namespace dsn {

/// Tuning knobs of the competitor ("arena") schemes — the flat-graph
/// rivals raced against CFF/iCFF/DFO (DESIGN.md §16). Grouped so the
/// scenario/fuzz/CLI layers can thread one seed-stream value through
/// every rival without enumerating per-scheme fields.
struct ArenaTuning {
  /// Fixed-p gossip relay probability.
  double gossipProbability = 0.65;
  /// Density-adaptive gossip: relay with min(1, fanout / degree).
  double adaptiveFanout = 3.5;
  /// Counter-based suppression threshold (copies heard => suppress).
  int counterThreshold = 3;
  /// Distance-based suppression radius (heard closer => suppress).
  double suppressRadius = 25.0;
  /// Contention backoff window shared by all rivals.
  int contentionWindow = 8;
  /// RLNC budgets: coded packets from the source / recoded per relay.
  int rlncSourceBudget = 12;
  int rlncRelayBudget = 6;
  /// Seed of every rival's per-node RNGs (relay coins, backoffs, RLNC
  /// coefficient draws). Runs are pure functions of it.
  std::uint64_t seed = 0xA12E5Aull;
};

/// Knobs of one protocol run (failure injection + radio configuration).
struct ProtocolOptions {
  /// Radio channels k (Theorem 1(3)).
  Channel channels = 1;
  /// 0 = derive a safe bound from the protocol's own schedule.
  Round maxRounds = 0;
  /// Transient relay-failure probability (each transmission silently
  /// dropped with this probability).
  double dropProbability = 0.0;
  /// Scheduled node deaths (node, firstDeadRound).
  std::vector<std::pair<NodeId, Round>> deaths;
  /// Gilbert–Elliott bursty loss; ignored unless burst.active().
  BurstLossParams burst;
  /// Spatial jamming zones. Require nodePositions to take effect.
  std::vector<JamZone> jamZones;
  /// Node positions (indexed by node id) for spatial jamming.
  /// SensorNetwork fills this automatically when jamZones is non-empty.
  std::vector<Point2D> nodePositions;
  /// Seed of the failure model's RNG (drop coin flips).
  std::uint64_t failureSeed = 0xFA11FA11ull;
  /// Event-trace capacity (0 = off).
  std::size_t traceCapacity = 0;
  /// Simulator scheduling strategy. Both modes produce bit-identical
  /// runs; the full scan exists as a differential oracle and as the
  /// perf-bench reference (see DESIGN.md §12).
  SimScheduling scheduling = SimScheduling::kActiveSet;
  /// Ignored. It selected the sharded round engine, which was removed
  /// because it ran slower than the serial engine at every thread count
  /// (DESIGN.md §14). It stays only because perfbench/src/
  /// grid_workload.cpp still assigns it; nothing else reads or writes it.
  int threads = 0;
  /// External resolve-scratch lease (borrowed, must outlive the run;
  /// see SimConfig::resolveScratch). The serve engine points every job
  /// at its worker's pooled scratch so repeated runs stop reallocating
  /// the O(V·k) resolve tables. Null = the engine's own scratch.
  ResolveScratch* resolveScratch = nullptr;
  /// Competitor-scheme knobs (ignored by the paper's cluster schemes).
  ArenaTuning arena;
};

/// Measured outcome of one run.
struct BroadcastRun {
  SimResult sim;
  /// Nodes that were supposed to end up with the payload.
  std::size_t intended = 0;
  /// Nodes that actually did (the source counts when it is intended).
  std::size_t delivered = 0;
  /// Round of the last first-delivery (-1 when nothing was delivered);
  /// the "time needed for the broadcast" of Fig. 8 is lastDelivery + 1.
  Round lastDeliveryRound = -1;
  /// The protocol's nominal schedule span in rounds.
  Round scheduleLength = 0;
  /// Fig. 9 metric: most rounds any single node spent awake.
  std::size_t maxAwakeRounds = 0;
  double meanAwakeRounds = 0.0;
  std::size_t transmissions = 0;
  std::size_t collisions = 0;
  /// RLNC only: full-rank decodes that failed the generation consistency
  /// check or recovered the wrong payload. Always 0 unless the field or
  /// elimination code is broken (decode-completeness oracle).
  std::size_t decodeFailures = 0;
  /// Per-node first-delivery round, indexed by node id (-1 = never got
  /// the payload or had no endpoint). The source reports round 0.
  std::vector<Round> deliveryRound;
  /// Per-node radio usage, indexed by node id (energy accounting for
  /// battery models; zero for nodes without a protocol).
  std::vector<std::uint32_t> listenRounds;
  std::vector<std::uint32_t> transmitRounds;
  /// Copy of the simulator's bounded event trace. Empty (disabled)
  /// unless ProtocolOptions::traceCapacity was set; lets callers export
  /// per-round event streams (JSONL) after the simulator is gone.
  Trace trace;

  bool allDelivered() const { return delivered == intended; }
  double coverage() const {
    return intended == 0
               ? 1.0
               : static_cast<double>(delivered) /
                     static_cast<double>(intended);
  }
  Round completionRounds() const { return lastDeliveryRound + 1; }
};

/// Delivery state every broadcast swarm keeps, keyed by node id: whether
/// and when each node got the payload, and which payload it holds. The
/// one broadcast run body (detail::runPayloadSwarm) reads it.
class PayloadSwarm : public SwarmProtocol {
 public:
  bool hasPayload(NodeId v) const { return (flags_[v] & kHasPayload) != 0; }
  /// First-delivery round (0 for the source, -1 = not delivered).
  Round payloadRound(NodeId v) const { return payloadRound_[v]; }
  /// Full-rank decodes that failed or recovered the wrong payload (see
  /// BroadcastRun::decodeFailures); only a coding swarm can have any.
  virtual std::size_t decodeFailures() const { return 0; }

 protected:
  /// flags_ bit every payload swarm shares; subclasses use higher bits.
  static constexpr std::uint8_t kHasPayload = 1;

  /// Every node starts without the payload and without any other flag.
  explicit PayloadSwarm(std::size_t nodeCount)
      : flags_(nodeCount, 0),
        payload_(nodeCount, 0),
        payloadRound_(nodeCount, -1) {}

  /// Resets node `v`'s delivery state: the source holds `payload` from
  /// round 0, everyone else waits for a frame.
  void addHolder(NodeId v, bool isSource, std::uint64_t payload) {
    DSN_REQUIRE(v < flags_.size(), "swarm member id out of range");
    flags_[v] = isSource ? kHasPayload : 0;
    payload_[v] = isSource ? payload : 0;
    payloadRound_[v] = isSource ? 0 : -1;
  }

  /// Node `v` takes `payload` in round `r` unless it already holds one;
  /// true when this was its first delivery.
  bool takePayload(NodeId v, std::uint64_t payload, Round r) {
    if (flags_[v] & kHasPayload) return false;
    flags_[v] |= kHasPayload;
    payload_[v] = payload;
    payloadRound_[v] = r;
    return true;
  }

  std::vector<std::uint8_t> flags_;
  std::vector<std::uint64_t> payload_;
  std::vector<Round> payloadRound_;
};

}  // namespace dsn
