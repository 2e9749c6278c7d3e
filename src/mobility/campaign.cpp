#include "mobility/campaign.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace dsn::mobility {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

void fold(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

}  // namespace

CampaignResult runMobilityCampaign(SensorNetwork& net, ChurnEngine& churn,
                                   const CampaignConfig& cfg) {
  CampaignResult res;
  Rng srcRng(cfg.sourceSeed);
  std::uint64_t digest = kFnvOffset;
  std::uint64_t payload = cfg.payloadBase;

  const Round step = std::max<Round>(1, cfg.churnPeriod);
  std::unique_ptr<InFlightBroadcast> wave;
  Round waveStart = 0;
  Round nextWave = 0;

  // Per-wave options; positions are filled when a jam zone needs them.
  const auto makeOptions = [&]() {
    ProtocolOptions opt = cfg.protocol;
    if (!opt.jamZones.empty() && opt.nodePositions.empty()) {
      const std::size_t n = net.graph().size();
      opt.nodePositions.resize(n);
      for (NodeId v = 0; v < n; ++v)
        if (net.index().contains(v)) opt.nodePositions[v] = net.index().position(v);
    }
    return opt;
  };

  const auto finalizeWave = [&](InFlightBroadcast& w) {
    w.runToCompletion();
    // A receiver that churn severed from the net entirely (orphaned by a
    // repair pass, without moving itself) was disrupted as surely as one
    // that moved: it leaves the settled class. No repair wave can reach
    // a node outside the structure, and the ≥99% gate is over reachable
    // settled receivers.
    for (NodeId v : w.intended()) {
      if (net.graph().isAlive(v) && !net.clusterNet().contains(v))
        w.noteDisplaced(v);
    }
    const InFlightReport r = w.finish();
    ++res.waves;
    res.intended += r.intended;
    res.delivered += r.delivered;
    res.departed += r.departed;
    res.displaced += r.displaced;
    res.settled += r.settled;
    res.settledFirstWave += r.deliveredSettled;

    // Settled receivers the primary wave missed (a relay died or moved
    // out from over them mid-flight).
    std::vector<NodeId> missing;
    for (NodeId v : w.intended()) {
      if (net.graph().isAlive(v) && !w.wasDisplaced(v) && !w.deliveredTo(v))
        missing.push_back(v);
    }

    std::size_t covered = r.deliveredSettled;
    if (cfg.repairWaves) {
      for (std::size_t attempt = 0;
           attempt < cfg.maxRepairWaves && !missing.empty(); ++attempt) {
        // The repaired structure may have dropped some of them (orphaned
        // outside the net); those are unreachable, not retried.
        missing.erase(std::remove_if(missing.begin(), missing.end(),
                                     [&](NodeId v) {
                                       return !net.clusterNet().contains(v);
                                     }),
                      missing.end());
        if (missing.empty() || net.size() < 2) break;
        if (net.hasStaleStructure()) net.repairAfterFailures();
        const NodeId src = net.randomNode(srcRng);
        InFlightBroadcast repairWave(net.clusterNet(), cfg.scheme, src,
                                     payload++, makeOptions());
        repairWave.runToCompletion();
        ++res.repairWavesRun;
        std::vector<NodeId> still;
        for (NodeId v : missing) {
          if (repairWave.deliveredTo(v))
            ++covered;
          else
            still.push_back(v);
        }
        missing.swap(still);
      }
    }
    res.settledCovered += covered;

    fold(digest, r.intended);
    fold(digest, r.delivered);
    fold(digest, r.departed);
    fold(digest, r.displaced);
    fold(digest, r.settled);
    fold(digest, r.deliveredSettled);
    fold(digest, covered);
    fold(digest, static_cast<std::uint64_t>(r.sim.rounds));
    fold(digest, r.transmissions);
    fold(digest, r.collisions);
    fold(digest, static_cast<std::uint64_t>(r.lastDeliveryRound + 1));
  };

  for (Round r = 0; r < cfg.rounds; r += step) {
    // Admit a wave on schedule — on a clean structure, from a random
    // in-net source.
    if (!wave && r >= nextWave) {
      nextWave = r + cfg.wavePeriod;
      if (net.size() >= 2) {
        if (net.hasStaleStructure()) net.repairAfterFailures();
        const NodeId src = net.randomNode(srcRng);
        wave = std::make_unique<InFlightBroadcast>(
            net.clusterNet(), cfg.scheme, src, payload++, makeOptions());
        waveStart = r;
      }
    }

    // Advance the in-flight wave one segment.
    if (wave) {
      wave->advanceTo(r + step - waveStart);
      if (wave->finished()) {
        finalizeWave(*wave);
        wave.reset();
      }
    }

    // Perturb the world, then resync the paused wave through the seam.
    const ChurnTick t = churn.tick(r);
    if (wave) {
      for (NodeId v : t.disturbed) wave->noteDisplaced(v);
      wave->onTopologyChanged();
    }
  }
  if (wave) {
    finalizeWave(*wave);
    wave.reset();
  }

  res.roundsRun = cfg.rounds;
  res.churn = churn.totals();
  fold(digest, res.churn.moves);
  fold(digest, res.churn.crashes);
  fold(digest, res.churn.joins);
  fold(digest, res.churn.leaves);
  fold(digest, res.churn.repairs);
  fold(digest, res.churn.rebuilds);
  fold(digest, static_cast<std::uint64_t>(res.churn.incrementalCost));
  fold(digest, static_cast<std::uint64_t>(res.churn.rebuildCost));
  fold(digest, res.churn.validationFailures);
  res.digest = digest;
  return res;
}

}  // namespace dsn::mobility
