// The synchronous round-based radio simulator.
//
// Drives one SwarmProtocol over its member nodes of the flat WSN graph
// until every live member reports done (or a round budget is exhausted),
// resolving collisions per the paper's model each round and metering
// energy.
//
// Failure injection happens here: dead nodes neither act nor receive;
// dropped transmissions consume energy but never reach the air.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "obs/flight.hpp"
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
  /// The original loop: scan all V nodes every round and resolve the
  /// channel over the whole graph.
  kFullScan,
};

/// Largest channel count k a run accepts. Every input boundary (job
/// lines, CLI flags) and RadioSimulator itself reject k outside
/// [1, kMaxChannels], so every channel index fits the 8-bit channel
/// field of the trace record.
inline constexpr Channel kMaxChannels = 256;
static_assert(kMaxChannels - 1 ==
                  std::numeric_limits<decltype(obs::FrEvent::channel)>::max(),
              "kMaxChannels must match FrEvent::channel's width");

/// Static configuration of one simulation run.
struct SimConfig {
  /// Number of radio channels k, in [1, kMaxChannels] (paper: 1 unless
  /// the k-channel variant).
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

/// Owns the run's protocol and runs the round loop.
class RadioSimulator {
 public:
  /// The graph is borrowed and must outlive the simulator.
  RadioSimulator(const Graph& graph, SimConfig config);

  /// Installs the run's protocol: ONE swarm driving every node in
  /// `members`, which must be live node ids of the graph. Nodes outside
  /// `members` sleep forever (and count as done); so does every node
  /// when no swarm is installed. The simulator owns the swarm.
  void setSwarm(std::unique_ptr<SwarmProtocol> swarm,
                const std::vector<NodeId>& members);

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
  /// for freshly added ids (which are not swarm members, so they sleep
  /// forever) and re-seeds the engine's wake structures from the
  /// swarm's nextWake hints.
  void resyncTopology();

  const EnergyMeter& energy() const { return energy_; }
  const Trace& trace() const { return trace_; }
  const SimConfig& config() const { return config_; }

 private:
  const Graph& graph_;
  SimConfig config_;
  std::unique_ptr<SwarmProtocol> swarm_;
  // Swarm membership by node id, sized to the graph; the engines call
  // swarm_ only for members, so an empty run never dereferences it.
  std::vector<std::uint8_t> member_;
  FailureModel failures_;
  EnergyMeter energy_;
  Trace trace_;
  bool ran_ = false;
  std::unique_ptr<SimEngine> engine_;

  bool allDone(Round r) const;

  friend class ActiveSetEngine;
  friend class FullScanEngine;
};

}  // namespace dsn
