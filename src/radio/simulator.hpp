// The synchronous round-based radio simulator.
//
// Drives one NodeProtocol per node over the flat WSN graph until every
// live node reports done (or a round budget is exhausted), resolving
// collisions per the paper's model each round and metering energy.
//
// Failure injection happens here: dead nodes neither act nor receive;
// dropped transmissions consume energy but never reach the air.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "radio/failure.hpp"
#include "radio/protocol.hpp"
#include "radio/trace.hpp"

namespace dsn {

/// How the simulator schedules per-round work. Both modes produce
/// bit-identical results (traces, energy, RNG draws, round counts);
/// kFullScan is kept as the differential oracle and micro-bench baseline.
enum class SimScheduling {
  /// Wake-queue driven: onRound only runs for nodes whose nextWake hint
  /// names the round, channel resolution only touches neighbors of
  /// actual transmitters, and idle round spans are skipped outright.
  kActiveSet,
  /// The original loop: scan all V protocols every round and resolve the
  /// channel over the whole graph.
  kFullScan,
};

/// Static configuration of one simulation run.
struct SimConfig {
  /// Number of radio channels k (paper: 1 unless the k-channel variant).
  Channel channelCount = 1;
  /// Hard stop; a protocol bug cannot hang a test or bench.
  Round maxRounds = 1'000'000;
  /// Capacity of the event trace (0 = tracing off).
  std::size_t traceCapacity = 0;
  /// Round-loop strategy; see SimScheduling.
  SimScheduling scheduling = SimScheduling::kActiveSet;
  /// External resolve scratch lease (borrowed, must outlive the run).
  /// When set, the active-set engine resolves rounds into this scratch
  /// instead of its own member — a serve loop or parallel bench pools
  /// one per worker so back-to-back runs reuse warm O(V·k) tables
  /// instead of reallocating them per run. prepare() is called on it at
  /// seed time (idempotent, never shrinks). Ignored by kFullScan.
  /// Results are bit-identical with or without it.
  ResolveScratch* resolveScratch = nullptr;
};

/// Aggregate result of a run.
struct SimResult {
  /// Rounds executed (index of the first round after the last activity).
  Round rounds = 0;
  /// True when the run ended because every live node was done (as opposed
  /// to hitting maxRounds).
  bool completed = false;
  std::size_t totalTransmissions = 0;
  std::size_t totalDeliveries = 0;
  std::size_t totalCollisions = 0;
  std::size_t droppedTransmissions = 0;
  /// Transmissions and deliveries lost to active jamming zones.
  std::size_t jammedLosses = 0;
};

class RadioSimulator;

/// A resumable scheduling engine: executes rounds in [cursor, stop) and
/// pauses at the segment boundary so callers can mutate the topology,
/// failure schedule, or protocol state between segments (DESIGN.md §15).
/// One engine instance spans the whole run; a classic run() is a single
/// segment to maxRounds. Each SimScheduling mode provides one subclass,
/// and both produce bit-identical segment results.
class SimEngine {
 public:
  explicit SimEngine(RadioSimulator& sim) : sim_(sim) {}
  virtual ~SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Executes rounds while cursor < stop, unless the run completes
  /// first. A stop at maxRounds finishes the run, including the
  /// budget-exhaustion accounting.
  virtual void advanceTo(Round stop) = 0;
  /// Re-reads topology and protocol state after an external mutation at
  /// the current cursor: refreshed CSR snapshot, re-seeded wake queues
  /// (nextWake is pure given protocol state), re-derived pending count,
  /// stale (removed or already-dead) nodes quiesced.
  virtual void resync() = 0;
  /// End-of-run telemetry flush; called exactly once, after done().
  virtual void finish() = 0;

  const SimResult& result() const { return result_; }
  /// The next round advanceTo would execute.
  Round cursor() const { return cursor_; }
  bool done() const { return done_; }

 protected:
  RadioSimulator& sim_;
  SimResult result_;
  Round cursor_ = 0;
  bool done_ = false;
};

/// Owns the protocols and runs the round loop.
class RadioSimulator {
 public:
  /// The graph is borrowed and must outlive the simulator.
  RadioSimulator(const Graph& graph, SimConfig config);

  /// Installs node `v`'s protocol. Every live node that should act needs
  /// one; nodes without a protocol sleep forever (and count as done).
  void setProtocol(NodeId v, std::unique_ptr<NodeProtocol> protocol);

  /// Installs ONE structure-of-arrays protocol driving every node in
  /// `members`. Mutually exclusive with setProtocol; nodes outside
  /// `members` sleep forever. The simulator owns the swarm.
  void setSwarm(std::unique_ptr<SwarmProtocol> swarm,
                const std::vector<NodeId>& members);

  NodeProtocol* protocol(NodeId v);
  const NodeProtocol* protocol(NodeId v) const;
  SwarmProtocol* swarm() { return swarm_.get(); }
  const SwarmProtocol* swarm() const { return swarm_.get(); }

  FailureModel& failures() { return failures_; }
  const FailureModel& failures() const { return failures_; }

  /// Runs rounds until all live protocols are done or maxRounds is hit.
  /// Callable once per simulator instance (and not after runUntil).
  SimResult run();

  /// Segmented execution: advances the round loop to `stop` (clamped to
  /// maxRounds) and pauses there, returning the result so far. The first
  /// call starts the run. Between segments the caller may mutate the
  /// graph, failure schedule, or protocol completion state — it must
  /// then call resyncTopology() before resuming. A run segmented at any
  /// set of boundaries with no mutations is bit-identical to run(); with
  /// mutations the outcome is still deterministic and identical across
  /// both scheduling modes (the reconfiguration seam's contract —
  /// DESIGN.md §15).
  SimResult runUntil(Round stop);
  /// True once the run has finished (completed or budget-exhausted).
  bool finished() const { return engine_ != nullptr && engine_->done(); }
  /// The next round a paused run would execute.
  Round cursor() const { return engine_ ? engine_->cursor() : 0; }
  /// Re-syncs a paused run after external mutation: grows per-node state
  /// for freshly added ids (which sleep forever unless they are swarm
  /// members) and re-seeds the engine's wake structures from the
  /// protocols' nextWake hints.
  void resyncTopology();

  const EnergyMeter& energy() const { return energy_; }
  const Trace& trace() const { return trace_; }
  const SimConfig& config() const { return config_; }

 private:
  const Graph& graph_;
  SimConfig config_;
  std::vector<std::unique_ptr<NodeProtocol>> protocols_;
  std::unique_ptr<SwarmProtocol> swarm_;
  std::vector<std::uint8_t> swarmMember_;
  FailureModel failures_;
  EnergyMeter energy_;
  Trace trace_;
  bool ran_ = false;
  std::unique_ptr<SimEngine> engine_;

  // Node dispatch: one seam over the two protocol representations so
  // every scheduler drives object-per-node and swarm nodes identically.
  bool nodePresent(NodeId v) const {
    return swarm_ ? swarmMember_[v] != 0 : protocols_[v] != nullptr;
  }
  Action nodeOnRound(NodeId v, Round r) {
    return swarm_ ? swarm_->onRound(v, r) : protocols_[v]->onRound(r);
  }
  void nodeOnReceive(NodeId v, const Message& m, Round r, Channel c) {
    if (swarm_)
      swarm_->onReceive(v, m, r, c);
    else
      protocols_[v]->onReceive(m, r, c);
  }
  bool nodeIsDone(NodeId v) const {
    return swarm_ ? swarm_->isDone(v) : protocols_[v]->isDone();
  }
  Round nodeNextWake(NodeId v, Round now) const {
    return swarm_ ? swarm_->nextWake(v, now) : protocols_[v]->nextWake(now);
  }

  bool allDone(Round r) const;

  friend class ActiveSetEngine;
  friend class FullScanEngine;
};

}  // namespace dsn
