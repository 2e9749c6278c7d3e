#include "radio/simulator.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// Builds a flight-recorder event from a radio-layer site. Round and
/// channel narrow to the record's fixed-width fields; both are bounded
/// far below the cast limits in practice (maxRounds, channelCount).
obs::FrEvent frEvent(obs::FrType t, Round r, std::uint32_t node,
                     std::uint32_t data = 0, Channel channel = 0,
                     std::uint16_t aux = 0) {
  obs::FrEvent e;
  e.round = static_cast<std::uint32_t>(r);
  e.node = node;
  e.data = data;
  e.type = static_cast<std::uint8_t>(t);
  e.channel = static_cast<std::uint8_t>(channel);
  e.aux = aux;
  return e;
}

std::uint16_t frKind(MsgKind k) {
  return static_cast<std::uint16_t>(k);
}

/// Folds one finished run into the global registry. Aggregates are
/// flushed once per run (not per round) so telemetry stays cheap even
/// when enabled; when disabled this is a single relaxed atomic load.
void flushRunMetrics(const SimResult& r) {
  if (!obs::enabled()) return;
  auto& m = obs::globalMetrics();
  m.counter("sim.runs").increment();
  m.counter("sim.transmissions").increment(r.totalTransmissions);
  m.counter("sim.deliveries").increment(r.totalDeliveries);
  m.counter("sim.collisions").increment(r.totalCollisions);
  m.counter("sim.dropped_transmissions").increment(r.droppedTransmissions);
  m.counter("sim.jammed_losses").increment(r.jammedLosses);
  m.counter("sim.rounds").increment(static_cast<std::uint64_t>(r.rounds));
  m.histogram("sim.rounds_executed",
              obs::Histogram::exponentialBounds(20))
      .observe(static_cast<double>(r.rounds));
  if (!r.completed) m.counter("sim.budget_exhausted").increment();
}

}  // namespace

RadioSimulator::RadioSimulator(const Graph& graph, SimConfig config)
    : graph_(graph),
      config_(config),
      protocols_(graph.size()),
      energy_(graph.size()),
      trace_(config.traceCapacity) {
  DSN_REQUIRE(config_.channelCount >= 1, "need at least one channel");
  DSN_REQUIRE(config_.maxRounds > 0, "maxRounds must be positive");
}

void RadioSimulator::setProtocol(NodeId v,
                                 std::unique_ptr<NodeProtocol> protocol) {
  DSN_REQUIRE(graph_.isAlive(v), "protocol target node must be live");
  DSN_REQUIRE(!ran_, "cannot install protocols after run()");
  DSN_REQUIRE(!swarm_, "setProtocol and setSwarm are mutually exclusive");
  protocols_[v] = std::move(protocol);
}

void RadioSimulator::setSwarm(std::unique_ptr<SwarmProtocol> swarm,
                              const std::vector<NodeId>& members) {
  DSN_REQUIRE(!ran_, "cannot install protocols after run()");
  DSN_REQUIRE(swarm != nullptr, "setSwarm: null swarm");
  for (const auto& p : protocols_)
    DSN_REQUIRE(!p, "setProtocol and setSwarm are mutually exclusive");
  swarm_ = std::move(swarm);
  swarmMember_.assign(graph_.size(), 0);
  for (const NodeId v : members) {
    DSN_REQUIRE(v < swarmMember_.size(), "swarm member id out of range");
    DSN_REQUIRE(graph_.isAlive(v), "swarm member node must be live");
    swarmMember_[v] = 1;
  }
}

NodeProtocol* RadioSimulator::protocol(NodeId v) {
  DSN_REQUIRE(v < protocols_.size(), "protocol: node id out of range");
  return protocols_[v].get();
}

const NodeProtocol* RadioSimulator::protocol(NodeId v) const {
  DSN_REQUIRE(v < protocols_.size(), "protocol: node id out of range");
  return protocols_[v].get();
}

bool RadioSimulator::allDone(Round r) const {
  for (NodeId v = 0; v < graph_.size(); ++v) {
    if (!nodePresent(v)) continue;
    if (!graph_.isAlive(v) || failures_.isDead(v, r)) continue;
    if (!nodeIsDone(v)) return false;
  }
  return true;
}

// ---- Engines ------------------------------------------------------------
//
// Each SimScheduling mode is one SimEngine subclass. The constructors
// seed from round 0; advanceTo(stop) executes [cursor, stop); resync()
// re-seeds at the paused cursor after an external mutation. The classic
// single-segment path (run()) traverses exactly the code the monolithic
// loops used to, in the same order — the engine split only moved the
// loop-carried state into members so the loop can pause.

/// The original full-scan loop: scan all V protocols every round. Kept
/// as the differential oracle; per-round state is just the action
/// buffer, so pausing is trivial.
class FullScanEngine : public SimEngine {
 public:
  explicit FullScanEngine(RadioSimulator& sim)
      : SimEngine(sim), actions_(sim.graph_.size()) {
    // Flight-recorder sites: the full scan is the differential oracle, so
    // it records only the radio-level categories (transmit/delivery,
    // collisions, per-transmit faults) — no round/sched events.
    frRadio_ = obs::recorderFor<obs::kFrCatRadio>();
    frColl_ = obs::recorderFor<obs::kFrCatCollision>();
    frFault_ = obs::recorderFor<obs::kFrCatFault>();
    frAny_ = frRadio_ ? frRadio_ : (frColl_ ? frColl_ : frFault_);
  }

  void advanceTo(Round stop) override;
  void resync() override { actions_.resize(sim_.graph_.size()); }
  void finish() override { flushRunMetrics(result_); }

 private:
  std::vector<Action> actions_;
  obs::FlightRecorder* frRadio_ = nullptr;
  obs::FlightRecorder* frColl_ = nullptr;
  obs::FlightRecorder* frFault_ = nullptr;
  const obs::FlightRecorder* frAny_ = nullptr;
};

void FullScanEngine::advanceTo(Round stop) {
  RadioSimulator& sim = sim_;
  SimResult& result = result_;
  const Channel k = sim.config_.channelCount;

  for (Round r = cursor_; r < stop; cursor_ = ++r) {
    const bool frSampled = frAny_ != nullptr && frAny_->roundSampled(r);
    if (sim.allDone(r)) {
      result.completed = true;
      result.rounds = r;
      done_ = true;
      return;
    }

    // Phase 1: collect actions from live, non-failed protocol nodes.
    for (NodeId v = 0; v < sim.graph_.size(); ++v) {
      actions_[v] = Action::sleep();
      if (!sim.nodePresent(v) || !sim.graph_.isAlive(v)) continue;
      if (sim.failures_.isDead(v, r)) continue;
      actions_[v] = sim.nodeOnRound(v, r);

      if (actions_[v].type == Action::Type::kTransmit) {
        sim.energy_.recordTransmit(v);
        if (sim.failures_.isJammed(v, r)) {
          // Energy spent, frame smothered by the jammer.
          ++result.jammedLosses;
          sim.trace_.record(TraceEvent{TraceEventType::kJammedTransmit, r, v,
                                       kInvalidNode, actions_[v].channel,
                                       actions_[v].message.kind});
          if (frFault_ && frSampled)
            frFault_->record(frEvent(obs::FrType::kJammedTransmit, r, v, 0,
                                     actions_[v].channel,
                                     frKind(actions_[v].message.kind)));
          actions_[v] = Action::sleep();
          continue;
        }
        if (sim.failures_.hasTransientLoss() &&
            sim.failures_.dropsTransmission()) {
          // Energy spent, nothing on air.
          ++result.droppedTransmissions;
          sim.trace_.record(TraceEvent{TraceEventType::kDroppedTransmit, r, v,
                                       kInvalidNode, actions_[v].channel,
                                       actions_[v].message.kind});
          if (frFault_ && frSampled)
            frFault_->record(frEvent(obs::FrType::kDroppedTransmit, r, v, 0,
                                     actions_[v].channel,
                                     frKind(actions_[v].message.kind)));
          actions_[v] = Action::sleep();
          continue;
        }
        sim.trace_.record(TraceEvent{TraceEventType::kTransmit, r, v,
                                     kInvalidNode, actions_[v].channel,
                                     actions_[v].message.kind});
        if (frRadio_ && frSampled)
          frRadio_->record(frEvent(obs::FrType::kTransmit, r, v, 0,
                                   actions_[v].channel,
                                   frKind(actions_[v].message.kind)));
      } else if (actions_[v].type == Action::Type::kListen) {
        sim.energy_.recordListen(v);
      }
    }

    // Phase 2: resolve the channel.
    const ChannelOutcome outcome = resolveRound(sim.graph_, actions_, k);
    result.totalTransmissions += outcome.transmissions;
    result.totalDeliveries += outcome.deliveries.size();
    result.totalCollisions += outcome.collisions();

    for (const auto& site : outcome.collisionSites) {
      sim.trace_.record(TraceEvent{TraceEventType::kCollision, r,
                                   site.listener, kInvalidNode, site.channel,
                                   MsgKind::kData});
      if (frColl_ && frSampled)
        frColl_->record(frEvent(obs::FrType::kCollision, r, site.listener, 0,
                                site.channel));
    }

    // Phase 3: deliver.
    for (const auto& d : outcome.deliveries) {
      if (sim.failures_.isDead(d.receiver, r)) continue;
      if (sim.failures_.isJammed(d.receiver, r)) {
        // The jammer drowns out reception too.
        ++result.jammedLosses;
        continue;
      }
      sim.energy_.recordReceive(d.receiver);
      const Message& m = actions_[d.transmitter].message;
      sim.trace_.record(TraceEvent{TraceEventType::kReceive, r, d.receiver,
                                   d.transmitter, d.channel, m.kind});
      if (frRadio_ && frSampled)
        frRadio_->record(frEvent(obs::FrType::kDelivery, r, d.receiver,
                                 d.transmitter, d.channel, frKind(m.kind)));
      sim.nodeOnReceive(d.receiver, m, r, d.channel);
    }

    result.rounds = r + 1;
  }

  if (stop >= sim.config_.maxRounds) {
    result.completed = sim.allDone(sim.config_.maxRounds);
    done_ = true;
  }
}

/// Wake-queue driven active-set loop (DESIGN.md §12).
class ActiveSetEngine : public SimEngine {
 public:
  explicit ActiveSetEngine(RadioSimulator& sim) : SimEngine(sim) {
    // Flight-recorder category pointers, fetched once per run (they all
    // alias the same per-thread recorder). Null when the category is
    // compiled out, recording is off, or the runtime mask excludes it —
    // each site below is then a dead branch. Inside the round loop every
    // record() is an indexed store: the zero-steady-state-allocation
    // guarantee is preserved with recording enabled.
    frRound_ = obs::recorderFor<obs::kFrCatRound>();
    frSched_ = obs::recorderFor<obs::kFrCatSched>();
    frRadio_ = obs::recorderFor<obs::kFrCatRadio>();
    frColl_ = obs::recorderFor<obs::kFrCatCollision>();
    frFault_ = obs::recorderFor<obs::kFrCatFault>();
    frAny_ = frRound_   ? frRound_
             : frSched_ ? frSched_
             : frRadio_ ? frRadio_
             : frColl_  ? frColl_
                        : frFault_;
    seed(0);
  }

  void advanceTo(Round stop) override;
  void resync() override { seed(cursor_); }
  void finish() override {
    profiler_.flushTo(obs::globalMetrics());
    flushRunMetrics(result_);
  }

 private:
  using WakeEntry = std::pair<Round, NodeId>;

  void seed(Round from);

  const CsrView* csr_ = nullptr;
  std::size_t n_ = 0;
  std::vector<Action> actions_;
  // pending = live protocol nodes that still block completion; a node is
  // `resolved` once it reports done or its scheduled death round passes
  // (allDone ignores dead nodes). isDone is monotone by contract, so a
  // node is counted out at most once per seed.
  std::vector<std::uint8_t> resolved_;
  std::size_t pending_ = 0;
  // Min-heap over (wake round, node); std::greater pops ascending (round,
  // node), which preserves the full scan's node-id iteration order within
  // a round. Each node holds at most one entry (re-queued only after its
  // entry is processed), so the pop sequence is a pure function of the
  // contents regardless of internal heap layout.
  std::vector<WakeEntry> wake_;
  // Scheduled deaths as a sorted event list; processing an event retires
  // the node from the pending count exactly when isDead starts holding.
  std::vector<std::pair<Round, NodeId>> deaths_;
  std::size_t deathIdx_ = 0;
  // Own scratch, used only when SimConfig::resolveScratch is null;
  // scr_ points at whichever is live for the current seed.
  ResolveScratch scratch_;
  ResolveScratch* scr_ = &scratch_;
  std::vector<NodeId> active_;
  std::vector<NodeId> transmitters_;
  obs::FlightRecorder* frRound_ = nullptr;
  obs::FlightRecorder* frSched_ = nullptr;
  obs::FlightRecorder* frRadio_ = nullptr;
  obs::FlightRecorder* frColl_ = nullptr;
  obs::FlightRecorder* frFault_ = nullptr;
  const obs::FlightRecorder* frAny_ = nullptr;
  obs::RoundProfiler profiler_;
};

void ActiveSetEngine::seed(Round from) {
  RadioSimulator& sim = sim_;
  csr_ = &sim.graph_.csrView();
  n_ = sim.graph_.size();
  actions_.assign(n_, Action::sleep());
  resolved_.assign(n_, 0);
  pending_ = 0;
  wake_.clear();
  wake_.reserve(n_ + 1);

  for (NodeId v = 0; v < n_; ++v) {
    if (!sim.nodePresent(v) || !sim.graph_.isAlive(v)) {
      resolved_[v] = 1;
      continue;
    }
    if (sim.failures_.isDead(v, from)) {
      // Stale-node quiescing: already dead at the seed round — resolved,
      // never queued (a queued entry would only be dropped on pop).
      resolved_[v] = 1;
      continue;
    }
    if (sim.nodeIsDone(v)) {
      resolved_[v] = 1;
    } else {
      ++pending_;
    }
    const Round nw = sim.nodeNextWake(v, from - 1);
    if (nw != kNoWake) {
      DSN_REQUIRE(nw >= from, "nextWake must not name a past round");
      wake_.emplace_back(nw, v);
    }
  }
  std::make_heap(wake_.begin(), wake_.end(), std::greater<WakeEntry>{});

  deaths_.clear();
  for (const auto& [v, dr] : sim.failures_.deathSchedule()) {
    if (v < n_ && dr > from && sim.nodePresent(v) && sim.graph_.isAlive(v)) {
      deaths_.emplace_back(dr, v);
    }
  }
  std::sort(deaths_.begin(), deaths_.end());
  deathIdx_ = 0;

  scr_ = sim.config_.resolveScratch != nullptr ? sim.config_.resolveScratch
                                               : &scratch_;
  scr_->prepare(n_, sim.config_.channelCount);
  active_.reserve(n_);
  transmitters_.reserve(n_);
}

void ActiveSetEngine::advanceTo(Round stop) {
  RadioSimulator& sim = sim_;
  SimResult& result = result_;
  const CsrView& csr = *csr_;
  auto& wake = wake_;
  auto& actions = actions_;
  auto& active = active_;
  auto& transmitters = transmitters_;

  Round r = cursor_;
  while (r < stop) {
    while (deathIdx_ < deaths_.size() && deaths_[deathIdx_].first <= r) {
      const NodeId v = deaths_[deathIdx_].second;
      if (!resolved_[v]) {
        resolved_[v] = 1;
        --pending_;
      }
      if (frFault_)  // deaths are rare: recorded regardless of sampling
        frFault_->record(
            frEvent(obs::FrType::kNodeDeath, deaths_[deathIdx_].first, v));
      ++deathIdx_;
    }
    if (pending_ == 0) {
      // allDone(r) holds before round r runs — same exit as the scan.
      result.completed = true;
      result.rounds = r;
      cursor_ = r;
      done_ = true;
      return;
    }

    // Fast-forward over idle spans: rounds with no waker and no death are
    // all-sleep no-ops in the full scan; only the round counter moves.
    // Clamped to the segment boundary so a pause lands exactly on `stop`.
    Round nextEvent = sim.config_.maxRounds;
    if (!wake.empty()) nextEvent = std::min(nextEvent, wake.front().first);
    if (deathIdx_ < deaths_.size()) {
      nextEvent = std::min(nextEvent, deaths_[deathIdx_].first);
    }
    if (nextEvent > r) {
      nextEvent = std::min(nextEvent, stop);
      if (frSched_ && frSched_->roundSampled(r))
        frSched_->record(frEvent(obs::FrType::kIdleSkip, r, 0,
                                 static_cast<std::uint32_t>(nextEvent)));
      result.rounds = nextEvent;
      r = nextEvent;
      cursor_ = r;
      continue;
    }

    // Round-scoped volume events obey the sampling setting; the flag is
    // computed once per executed round.
    const bool frSampled = frAny_ != nullptr && frAny_->roundSampled(r);
    profiler_.beginRound();

    // Phase 1: this round's wakers, ascending node id.
    active.clear();
    transmitters.clear();
    while (!wake.empty() && wake.front().first == r) {
      std::pop_heap(wake.begin(), wake.end(), std::greater<WakeEntry>{});
      active.push_back(wake.back().second);
      wake.pop_back();
    }
    if (frRound_ && frSampled)
      frRound_->record(frEvent(obs::FrType::kRoundBegin, r, 0,
                               static_cast<std::uint32_t>(active.size())));
    for (const NodeId v : active) {
      if (sim.failures_.isDead(v, r)) continue;  // dead: never re-queued
      if (frSched_ && frSampled)
        frSched_->record(frEvent(obs::FrType::kWakePop, r, v));
      actions[v] = sim.nodeOnRound(v, r);

      if (actions[v].type == Action::Type::kTransmit) {
        sim.energy_.recordTransmit(v);
        if (sim.failures_.isJammed(v, r)) {
          // Energy spent, frame smothered by the jammer.
          ++result.jammedLosses;
          sim.trace_.record(TraceEvent{TraceEventType::kJammedTransmit, r, v,
                                       kInvalidNode, actions[v].channel,
                                       actions[v].message.kind});
          if (frFault_ && frSampled)
            frFault_->record(frEvent(obs::FrType::kJammedTransmit, r, v, 0,
                                     actions[v].channel,
                                     frKind(actions[v].message.kind)));
          actions[v] = Action::sleep();
          continue;
        }
        if (sim.failures_.hasTransientLoss() &&
            sim.failures_.dropsTransmission()) {
          // Energy spent, nothing on air.
          ++result.droppedTransmissions;
          sim.trace_.record(TraceEvent{TraceEventType::kDroppedTransmit, r, v,
                                       kInvalidNode, actions[v].channel,
                                       actions[v].message.kind});
          if (frFault_ && frSampled)
            frFault_->record(frEvent(obs::FrType::kDroppedTransmit, r, v, 0,
                                     actions[v].channel,
                                     frKind(actions[v].message.kind)));
          actions[v] = Action::sleep();
          continue;
        }
        sim.trace_.record(TraceEvent{TraceEventType::kTransmit, r, v,
                                     kInvalidNode, actions[v].channel,
                                     actions[v].message.kind});
        if (frRadio_ && frSampled)
          frRadio_->record(frEvent(obs::FrType::kTransmit, r, v, 0,
                                   actions[v].channel,
                                   frKind(actions[v].message.kind)));
        transmitters.push_back(v);
      } else if (actions[v].type == Action::Type::kListen) {
        sim.energy_.recordListen(v);
      }
    }

    // Resolve work (Σ transmitter degrees) — the cost driver of phase 2.
    // Computed only when someone consumes it.
    std::uint64_t resolveWork = 0;
    if (profiler_.active() || (frRound_ && frSampled)) {
      for (const NodeId tx : transmitters) resolveWork += csr.degree(tx);
    }

    // Phase 2: resolve only around actual transmitters.
    const ChannelOutcome& outcome = resolveRoundActive(
        csr, actions, transmitters, sim.config_.channelCount, *scr_);
    result.totalTransmissions += outcome.transmissions;
    result.totalDeliveries += outcome.deliveries.size();
    result.totalCollisions += outcome.collisions();

    for (const auto& site : outcome.collisionSites) {
      sim.trace_.record(TraceEvent{TraceEventType::kCollision, r,
                                   site.listener, kInvalidNode, site.channel,
                                   MsgKind::kData});
      if (frColl_ && frSampled)
        frColl_->record(frEvent(obs::FrType::kCollision, r, site.listener, 0,
                                site.channel));
    }

    // Phase 3: deliver. Receivers are always listeners, hence active.
    std::uint32_t roundDeliveries = 0;
    for (const auto& d : outcome.deliveries) {
      if (sim.failures_.isDead(d.receiver, r)) continue;
      if (sim.failures_.isJammed(d.receiver, r)) {
        // The jammer drowns out reception too.
        ++result.jammedLosses;
        continue;
      }
      sim.energy_.recordReceive(d.receiver);
      const Message& m = actions[d.transmitter].message;
      sim.trace_.record(TraceEvent{TraceEventType::kReceive, r, d.receiver,
                                   d.transmitter, d.channel, m.kind});
      if (frRadio_ && frSampled)
        frRadio_->record(frEvent(obs::FrType::kDelivery, r, d.receiver,
                                 d.transmitter, d.channel, frKind(m.kind)));
      ++roundDeliveries;
      sim.nodeOnReceive(d.receiver, m, r, d.channel);
    }

    // Post-round: retire freshly-done nodes, re-queue the rest. Only
    // active nodes can have changed state (sleepers neither act nor
    // receive), so scanning the active set is exhaustive.
    for (const NodeId v : active) {
      actions[v] = Action::sleep();
      if (sim.failures_.isDead(v, r)) continue;
      if (!resolved_[v] && sim.nodeIsDone(v)) {
        resolved_[v] = 1;
        --pending_;
      }
      const Round nw = sim.nodeNextWake(v, r);
      if (nw != kNoWake) {
        DSN_REQUIRE(nw > r, "nextWake must name a future round");
        wake.emplace_back(nw, v);
        std::push_heap(wake.begin(), wake.end(), std::greater<WakeEntry>{});
      }
    }

    if (frRound_ && frSampled)
      frRound_->record(frEvent(
          obs::FrType::kRoundEnd, r, roundDeliveries,
          static_cast<std::uint32_t>(resolveWork), 0,
          static_cast<std::uint16_t>(
              std::min<std::size_t>(transmitters.size(), 65535))));
    profiler_.endRound(active.size(), resolveWork);

    result.rounds = r + 1;
    ++r;
    cursor_ = r;
  }

  if (stop < sim.config_.maxRounds) return;  // paused at a segment boundary

  // Budget exhausted: mirror allDone(maxRounds), whose isDead(v, maxRounds)
  // excludes every death scheduled at or before the budget round.
  while (deathIdx_ < deaths_.size() &&
         deaths_[deathIdx_].first <= sim.config_.maxRounds) {
    const NodeId v = deaths_[deathIdx_].second;
    if (!resolved_[v]) {
      resolved_[v] = 1;
      --pending_;
    }
    ++deathIdx_;
  }
  result.completed = pending_ == 0;
  result.rounds = sim.config_.maxRounds;
  done_ = true;
}

// ---- Run entry points ---------------------------------------------------

SimResult RadioSimulator::run() {
  DSN_REQUIRE(!ran_, "run() may be called only once");
  return runUntil(config_.maxRounds);
}

SimResult RadioSimulator::runUntil(Round stop) {
  if (stop > config_.maxRounds) stop = config_.maxRounds;
  if (!engine_) {
    DSN_REQUIRE(!ran_, "runUntil: cannot start a second run");
    ran_ = true;
    switch (config_.scheduling) {
      case SimScheduling::kFullScan:
        engine_ = std::make_unique<FullScanEngine>(*this);
        break;
      case SimScheduling::kActiveSet:
        engine_ = std::make_unique<ActiveSetEngine>(*this);
        break;
    }
  }
  DSN_REQUIRE(!engine_->done(), "runUntil: the run already finished");
  {
    DSN_TIMED_PHASE("sim.run");
    engine_->advanceTo(stop);
  }
  if (engine_->done()) engine_->finish();
  return engine_->result();
}

void RadioSimulator::resyncTopology() {
  DSN_REQUIRE(engine_ != nullptr, "resyncTopology: run not started");
  DSN_REQUIRE(!engine_->done(), "resyncTopology: the run already finished");
  const std::size_t n = graph_.size();
  if (protocols_.size() < n) protocols_.resize(n);
  if (swarm_ && swarmMember_.size() < n) swarmMember_.resize(n, 0);
  energy_.growTo(n);
  engine_->resync();
}

}  // namespace dsn
