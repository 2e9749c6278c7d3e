#include "radio/simulator.hpp"

#include <algorithm>
#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timer.hpp"
#include "radio/wake_calendar.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// Builds an event from a simulator site. Round and channel narrow to
/// the record's fixed-width fields: channels are below channelCount <=
/// kMaxChannels, and rounds stay far below 2^32 in practice (maxRounds).
obs::FrEvent frEvent(obs::FrType t, Round r, std::uint32_t node,
                     std::uint32_t data = 0, Channel channel = 0,
                     std::uint16_t aux = 0) {
  return obs::makeFrEvent(t, static_cast<std::uint32_t>(r), node, data,
                          static_cast<std::uint8_t>(channel), aux);
}

std::uint16_t frKind(MsgKind k) {
  return static_cast<std::uint16_t>(k);
}

/// A transmit-side event (sent, dropped or jammed) of node v's frame.
obs::FrEvent txEvent(obs::FrType t, Round r, NodeId v, Channel channel,
                     const Message& m) {
  return frEvent(t, r, v, 0, channel, frKind(m.kind));
}

/// The one recording path for radio events: every event goes to the
/// run's bounded trace, and to the flight-recorder ring when its
/// category's recorder is set and the round is sampled.
void recordRadio(Trace& trace, obs::FlightRecorder* ring, bool sampled,
                 const obs::FrEvent& e) {
  trace.record(e);
  if (ring != nullptr && sampled) ring->record(e);
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
      member_(graph.size(), 0),
      energy_(graph.size()),
      trace_(config.traceCapacity) {
  DSN_REQUIRE(config_.channelCount >= 1 &&
                  config_.channelCount <= kMaxChannels,
              "channelCount must be in [1, kMaxChannels]");
  DSN_REQUIRE(config_.maxRounds > 0, "maxRounds must be positive");
}

void RadioSimulator::setSwarm(std::unique_ptr<SwarmProtocol> swarm,
                              const std::vector<NodeId>& members) {
  DSN_REQUIRE(!ran_, "cannot install a swarm after run()");
  DSN_REQUIRE(swarm != nullptr, "setSwarm: null swarm");
  for (const NodeId v : members) {
    DSN_REQUIRE(v < member_.size(), "swarm member id out of range");
    DSN_REQUIRE(graph_.isAlive(v), "swarm member node must be live");
  }
  std::fill(member_.begin(), member_.end(), 0);
  for (const NodeId v : members) member_[v] = 1;
  swarm_ = std::move(swarm);
}

bool RadioSimulator::allDone(Round r) const {
  for (NodeId v = 0; v < graph_.size(); ++v) {
    if (!member_[v]) continue;
    if (!graph_.isAlive(v) || failures_.isDead(v, r)) continue;
    if (!swarm_->isDone(v)) return false;
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

/// The original full-scan loop: scan all V nodes every round. Kept
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

    // Phase 1: collect actions from live, non-failed members.
    for (NodeId v = 0; v < sim.graph_.size(); ++v) {
      actions_[v] = Action::sleep();
      if (!sim.member_[v] || !sim.graph_.isAlive(v)) continue;
      if (sim.failures_.isDead(v, r)) continue;
      actions_[v] = sim.swarm_->onRound(v, r);

      if (actions_[v].type == Action::Type::kTransmit) {
        sim.energy_.recordTransmit(v);
        if (sim.failures_.isJammed(v, r)) {
          // Energy spent, frame smothered by the jammer.
          ++result.jammedLosses;
          recordRadio(sim.trace_, frFault_, frSampled,
                      txEvent(obs::FrType::kJammedTransmit, r, v,
                              actions_[v].channel, actions_[v].message));
          actions_[v] = Action::sleep();
          continue;
        }
        if (sim.failures_.hasTransientLoss() &&
            sim.failures_.dropsTransmission()) {
          // Energy spent, nothing on air.
          ++result.droppedTransmissions;
          recordRadio(sim.trace_, frFault_, frSampled,
                      txEvent(obs::FrType::kDroppedTransmit, r, v,
                              actions_[v].channel, actions_[v].message));
          actions_[v] = Action::sleep();
          continue;
        }
        recordRadio(sim.trace_, frRadio_, frSampled,
                    txEvent(obs::FrType::kTransmit, r, v, actions_[v].channel,
                            actions_[v].message));
      } else if (actions_[v].type == Action::Type::kListen) {
        sim.energy_.recordListen(v);
      }
    }

    // Phase 2: resolve the channel.
    const ChannelOutcome outcome = resolveRound(sim.graph_, actions_, k);
    result.totalTransmissions += outcome.transmissions;
    result.totalDeliveries += outcome.deliveries.size();
    result.totalCollisions += outcome.collisions();

    for (const auto& site : outcome.collisionSites)
      recordRadio(sim.trace_, frColl_, frSampled,
                  frEvent(obs::FrType::kCollision, r, site.listener, 0,
                          site.channel));

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
      recordRadio(sim.trace_, frRadio_, frSampled,
                  frEvent(obs::FrType::kDelivery, r, d.receiver,
                          d.transmitter, d.channel, frKind(m.kind)));
      sim.swarm_->onReceive(d.receiver, m, r, d.channel);
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
  void seed(Round from);

  const CsrView* csr_ = nullptr;
  std::size_t n_ = 0;
  // The round's actions without a per-node Action: each node's listen
  // channel (kNotListening unless it listens this round; the post-round
  // loop resets every active node, so the column is all kNotListening
  // between rounds), the frames on air in transmitter order, and each
  // transmitter's index into them, which a delivery reads to find its
  // message.
  std::vector<Channel> listen_;
  std::vector<Transmission> transmissions_;
  std::vector<std::uint32_t> txIndex_;
  // pending = live members that still block completion; a node is
  // `resolved` once it reports done or its scheduled death round passes
  // (allDone ignores dead nodes). isDone is monotone by contract, so a
  // node is counted out at most once per seed.
  std::vector<std::uint8_t> resolved_;
  std::size_t pending_ = 0;
  // Wake calendar: releases each round's wakers in ascending node id,
  // which preserves the full scan's node-id iteration order within a
  // round. Each node holds at most one entry (re-queued only after its
  // entry is processed), so the release sequence is a pure function of
  // the queued (round, node) pairs.
  WakeCalendar wake_;
  // Scheduled deaths as a sorted event list; processing an event retires
  // the node from the pending count exactly when isDead starts holding.
  std::vector<std::pair<Round, NodeId>> deaths_;
  std::size_t deathIdx_ = 0;
  // Own scratch, used only when SimConfig::resolveScratch is null;
  // scr_ points at whichever is live for the current seed.
  ResolveScratch scratch_;
  ResolveScratch* scr_ = &scratch_;
  std::vector<NodeId> active_;
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
  listen_.resize(n_, kNotListening);
  txIndex_.resize(n_);
  resolved_.assign(n_, 0);
  pending_ = 0;
  wake_.reset(n_, from, sim.config_.maxRounds);

  for (NodeId v = 0; v < n_; ++v) {
    if (!sim.member_[v] || !sim.graph_.isAlive(v)) {
      resolved_[v] = 1;
      continue;
    }
    if (sim.failures_.isDead(v, from)) {
      // Stale-node quiescing: already dead at the seed round — resolved,
      // never queued (a queued entry would only be dropped on pop).
      resolved_[v] = 1;
      continue;
    }
    if (sim.swarm_->isDone(v)) {
      resolved_[v] = 1;
    } else {
      ++pending_;
    }
    const Round nw = sim.swarm_->nextWake(v, from - 1);
    if (nw != kNoWake) {
      DSN_REQUIRE(nw >= from, "nextWake must not name a past round");
      wake_.push(v, nw);
    }
  }

  deaths_.clear();
  for (const auto& [v, dr] : sim.failures_.deathSchedule()) {
    if (v < n_ && dr > from && sim.member_[v] && sim.graph_.isAlive(v)) {
      deaths_.emplace_back(dr, v);
    }
  }
  std::sort(deaths_.begin(), deaths_.end());
  deathIdx_ = 0;

  scr_ = sim.config_.resolveScratch != nullptr ? sim.config_.resolveScratch
                                               : &scratch_;
  scr_->prepare(n_, sim.config_.channelCount);
  active_.reserve(n_);
}

void ActiveSetEngine::advanceTo(Round stop) {
  RadioSimulator& sim = sim_;
  SimResult& result = result_;
  const CsrView& csr = *csr_;
  auto& wake = wake_;
  auto& listen = listen_;
  auto& transmissions = transmissions_;
  auto& active = active_;
  const Channel k = sim.config_.channelCount;

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
    // advance() also re-bases the calendar at r, no wake being earlier.
    Round nextEvent = std::min(sim.config_.maxRounds, wake.advance(r));
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
    wake.drain(r, active);
    transmissions.clear();
    if (frRound_ && frSampled)
      frRound_->record(frEvent(obs::FrType::kRoundBegin, r, 0,
                               static_cast<std::uint32_t>(active.size())));
    for (const NodeId v : active) {
      if (sim.failures_.isDead(v, r)) continue;  // dead: never re-queued
      if (frSched_ && frSampled)
        frSched_->record(frEvent(obs::FrType::kWakePop, r, v));
      const Action a = sim.swarm_->onRound(v, r);

      if (a.type == Action::Type::kTransmit) {
        sim.energy_.recordTransmit(v);
        if (sim.failures_.isJammed(v, r)) {
          // Energy spent, frame smothered by the jammer.
          ++result.jammedLosses;
          recordRadio(sim.trace_, frFault_, frSampled,
                      txEvent(obs::FrType::kJammedTransmit, r, v, a.channel,
                              a.message));
          continue;
        }
        if (sim.failures_.hasTransientLoss() &&
            sim.failures_.dropsTransmission()) {
          // Energy spent, nothing on air.
          ++result.droppedTransmissions;
          recordRadio(sim.trace_, frFault_, frSampled,
                      txEvent(obs::FrType::kDroppedTransmit, r, v, a.channel,
                              a.message));
          continue;
        }
        recordRadio(sim.trace_, frRadio_, frSampled,
                    txEvent(obs::FrType::kTransmit, r, v, a.channel,
                            a.message));
        txIndex_[v] = static_cast<std::uint32_t>(transmissions.size());
        transmissions.push_back(Transmission{v, a.channel, a.message});
      } else if (a.type == Action::Type::kListen) {
        // Refused here for every listener, as the full scan refuses it,
        // so no listener can write kNotListening into the column.
        DSN_REQUIRE(a.channel == kAllChannels || a.channel < k,
                    "listen channel out of range");
        sim.energy_.recordListen(v);
        listen[v] = a.channel;
      }
    }

    // Resolve work (Σ transmitter degrees) — the cost driver of phase 2.
    // Computed only when someone consumes it.
    std::uint64_t resolveWork = 0;
    if (profiler_.active() || (frRound_ && frSampled)) {
      for (const Transmission& t : transmissions)
        resolveWork += csr.degree(t.transmitter);
    }

    // Phase 2: resolve only around actual transmitters.
    const ChannelOutcome& outcome =
        resolveRoundActive(csr, listen, transmissions, k, *scr_);
    result.totalTransmissions += outcome.transmissions;
    result.totalDeliveries += outcome.deliveries.size();
    result.totalCollisions += outcome.collisions();

    for (const auto& site : outcome.collisionSites)
      recordRadio(sim.trace_, frColl_, frSampled,
                  frEvent(obs::FrType::kCollision, r, site.listener, 0,
                          site.channel));

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
      const Message& m = transmissions[txIndex_[d.transmitter]].message;
      recordRadio(sim.trace_, frRadio_, frSampled,
                  frEvent(obs::FrType::kDelivery, r, d.receiver,
                          d.transmitter, d.channel, frKind(m.kind)));
      ++roundDeliveries;
      sim.swarm_->onReceive(d.receiver, m, r, d.channel);
    }

    // Post-round: retire freshly-done nodes, re-queue the rest. Only
    // active nodes can have changed state (sleepers neither act nor
    // receive), so scanning the active set is exhaustive.
    for (const NodeId v : active) {
      listen[v] = kNotListening;
      if (sim.failures_.isDead(v, r)) continue;
      if (!resolved_[v] && sim.swarm_->isDone(v)) {
        resolved_[v] = 1;
        --pending_;
      }
      const Round nw = sim.swarm_->nextWake(v, r);
      if (nw != kNoWake) {
        DSN_REQUIRE(nw > r, "nextWake must name a future round");
        wake.push(v, nw);
      }
    }

    if (frRound_ && frSampled)
      frRound_->record(frEvent(
          obs::FrType::kRoundEnd, r, roundDeliveries,
          static_cast<std::uint32_t>(resolveWork), 0,
          static_cast<std::uint16_t>(
              std::min<std::size_t>(transmissions.size(), 65535))));
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
  if (member_.size() < n) member_.resize(n, 0);
  energy_.growTo(n);
  engine_->resync();
}

}  // namespace dsn
