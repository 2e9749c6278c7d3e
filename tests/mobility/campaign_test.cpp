// Mobility campaigns: broadcasts in flight over sustained churn.
//
// The acceptance-shaped checks at test scale (the full 1e5-round
// campaign runs in tbl_mobility and the churn-smoke CI job): the digest
// is bit-identical across scheduling modes, every repair leaves the
// structure validator-clean, and union coverage of settled receivers
// clears the 99% gate.
#include <gtest/gtest.h>

#include "core/sensor_network.hpp"
#include "mobility/campaign.hpp"

namespace dsn::mobility {
namespace {

CampaignResult runCampaign(Round rounds = 3000,
                           SimScheduling scheduling =
                               SimScheduling::kActiveSet) {
  NetworkConfig nc;
  nc.field = Field::squareUnits(4);
  nc.nodeCount = 80;
  nc.seed = 0xCA4A;
  SensorNetwork net(nc);

  WaypointConfig wc;
  wc.field = Field::squareUnits(4);
  wc.speed = 20.0;
  wc.period = 32;
  RandomWaypointModel model(wc);
  for (NodeId v : net.clusterNet().netNodes()) model.track(v, net.position(v));

  ChurnConfig cc;
  cc.crashRate = 0.05;
  cc.joinRate = 0.05;
  cc.leaveRate = 0.03;
  cc.policy = RepairPolicy::kAdaptive;
  cc.field = Field::squareUnits(4);
  ChurnEngine engine(net, &model, cc);

  CampaignConfig cfg;
  cfg.rounds = rounds;
  cfg.wavePeriod = 150;
  cfg.churnPeriod = 8;
  cfg.protocol.scheduling = scheduling;
  return runMobilityCampaign(net, engine, cfg);
}

TEST(MobilityCampaignTest, SustainsCoverageAndValidationUnderChurn) {
  const CampaignResult res = runCampaign();
  EXPECT_GT(res.waves, 10u);
  EXPECT_EQ(res.roundsRun, 3000);
  EXPECT_GT(res.churn.moves, 0u);
  EXPECT_GT(res.churn.crashes + res.churn.leaves, 0u);
  EXPECT_GT(res.churn.repairs, 0u);
  EXPECT_TRUE(res.validatorClean());
  EXPECT_GE(res.effectiveCoverage(), 0.99);
  // Union coverage only adds to what the primary waves delivered.
  EXPECT_GE(res.settledCovered, res.settledFirstWave);
  EXPECT_LE(res.settledCovered, res.settled);
  EXPECT_GE(res.effectiveCoverage(), res.firstWaveCoverage());
  // The three-way split is a partition of the intended receivers.
  EXPECT_EQ(res.intended, res.departed + res.displaced + res.settled);
}

TEST(MobilityCampaignTest, DigestBitIdenticalAcrossSchedulers) {
  const CampaignResult ref = runCampaign(1500, SimScheduling::kFullScan);
  const CampaignResult got = runCampaign(1500, SimScheduling::kActiveSet);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.waves, ref.waves);
  EXPECT_EQ(got.intended, ref.intended);
  EXPECT_EQ(got.delivered, ref.delivered);
  EXPECT_EQ(got.settledCovered, ref.settledCovered);
  EXPECT_EQ(got.repairWavesRun, ref.repairWavesRun);
  EXPECT_EQ(got.churn.moves, ref.churn.moves);
  EXPECT_EQ(got.churn.rebuilds, ref.churn.rebuilds);
}

TEST(MobilityCampaignTest, DeterministicAcrossProcessRepeats) {
  const CampaignResult a = runCampaign(1000);
  const CampaignResult b = runCampaign(1000);
  EXPECT_EQ(a.digest, b.digest);
}

}  // namespace
}  // namespace dsn::mobility
