// Mobility campaigns: long-running churn with broadcasts in flight
// (DESIGN.md §15).
//
// runMobilityCampaign drives a global round clock over a SensorNetwork:
// every `wavePeriod` rounds it admits a CFF/iCFF broadcast from a random
// source, and every `churnPeriod` rounds the ChurnEngine perturbs the
// deployment — while the wave is still in flight. Each perturbation
// pauses the wave at a segment boundary, mutates the topology, resyncs
// the simulator through the reconfiguration seam, and resumes; the wave
// completes under whatever network remains.
//
// Coverage accounting follows InFlightReport's three-way split; waves
// that miss settled receivers (for instance when a relay crashed before
// its TDM window) are optionally re-issued against the repaired
// structure ("repair waves", the reliable-broadcast completion story),
// and a settled node counts as covered when any attempt delivered.
//
// The whole campaign is a deterministic function of its config: the
// result digest is bit-identical across scheduling modes and process
// runs.
#pragma once

#include <cstdint>

#include "broadcast/inflight.hpp"
#include "core/sensor_network.hpp"
#include "mobility/churn.hpp"
#include "mobility/model.hpp"

namespace dsn::mobility {

struct CampaignConfig {
  /// Global rounds to simulate (acceptance campaigns run >= 1e5).
  Round rounds = 100'000;
  /// Admission cadence: a new wave every `wavePeriod` rounds (Δ).
  Round wavePeriod = 200;
  /// Churn/segment cadence: the wave pauses, the world changes, the
  /// engines resync — every `churnPeriod` rounds.
  Round churnPeriod = 8;
  BroadcastScheme scheme = BroadcastScheme::kImprovedCff;
  std::uint64_t payloadBase = 0xDA7A0000;
  /// Re-issue a completed wave that missed settled receivers against the
  /// repaired structure, and credit union coverage.
  bool repairWaves = true;
  std::size_t maxRepairWaves = 2;
  /// Per-wave protocol knobs.
  ProtocolOptions protocol;
  std::uint64_t sourceSeed = 0x5EED;
};

struct CampaignResult {
  std::size_t waves = 0;
  std::size_t repairWavesRun = 0;
  Round roundsRun = 0;
  // Aggregates over all primary waves.
  std::size_t intended = 0;
  std::size_t delivered = 0;
  std::size_t departed = 0;
  std::size_t displaced = 0;
  std::size_t settled = 0;
  /// Settled receivers covered by the primary wave alone.
  std::size_t settledFirstWave = 0;
  /// Settled receivers covered after repair waves (union credit).
  std::size_t settledCovered = 0;
  ChurnTotals churn;
  /// FNV-1a fold of every wave outcome + churn totals; identical across
  /// scheduling modes.
  std::uint64_t digest = 0;

  /// The acceptance-gate number: union coverage of settled receivers.
  double effectiveCoverage() const {
    return settled == 0 ? 1.0
                        : static_cast<double>(settledCovered) /
                              static_cast<double>(settled);
  }
  /// Primary-wave coverage, before repair credit.
  double firstWaveCoverage() const {
    return settled == 0 ? 1.0
                        : static_cast<double>(settledFirstWave) /
                              static_cast<double>(settled);
  }
  bool validatorClean() const { return churn.validationFailures == 0; }
};

/// Runs the campaign. `churn` (and its model) drive the perturbations;
/// the engine's totals end up in the result.
CampaignResult runMobilityCampaign(SensorNetwork& net, ChurnEngine& churn,
                                   const CampaignConfig& cfg);

}  // namespace dsn::mobility
