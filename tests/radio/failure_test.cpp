#include "radio/failure.hpp"

#include <gtest/gtest.h>

namespace dsn {
namespace {

TEST(FailureModelTest, NoFailuresByDefault) {
  FailureModel f;
  EXPECT_FALSE(f.isDead(0, 0));
  EXPECT_FALSE(f.isDead(42, 1000000));
  EXPECT_FALSE(f.hasScheduledDeaths());
  EXPECT_DOUBLE_EQ(f.dropProbability(), 0.0);
}

TEST(FailureModelTest, KillAtBoundary) {
  FailureModel f;
  f.killAt(3, 10);
  EXPECT_FALSE(f.isDead(3, 9));
  EXPECT_TRUE(f.isDead(3, 10));
  EXPECT_TRUE(f.isDead(3, 11));
  EXPECT_FALSE(f.isDead(4, 10));
  EXPECT_TRUE(f.hasScheduledDeaths());
}

TEST(FailureModelTest, EarlierKillWins) {
  FailureModel f;
  f.killAt(1, 10);
  f.killAt(1, 5);
  EXPECT_TRUE(f.isDead(1, 5));
  f.killAt(1, 20);  // later schedule cannot resurrect
  EXPECT_TRUE(f.isDead(1, 5));
}

TEST(FailureModelTest, NegativeDeathRoundRejected) {
  FailureModel f;
  EXPECT_THROW(f.killAt(0, -1), PreconditionError);
}

TEST(FailureModelTest, DropProbabilityValidation) {
  FailureModel f;
  EXPECT_THROW(f.setDropProbability(-0.1), PreconditionError);
  EXPECT_THROW(f.setDropProbability(1.1), PreconditionError);
  f.setDropProbability(0.5);
  EXPECT_DOUBLE_EQ(f.dropProbability(), 0.5);
}

TEST(FailureModelTest, DropFrequencyMatchesProbability) {
  FailureModel f(1234);
  f.setDropProbability(0.25);
  int drops = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i)
    if (f.dropsTransmission()) ++drops;
  EXPECT_NEAR(static_cast<double>(drops) / trials, 0.25, 0.02);
}

TEST(FailureModelTest, DeterministicGivenSeed) {
  FailureModel a(7), b(7);
  a.setDropProbability(0.5);
  b.setDropProbability(0.5);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(a.dropsTransmission(), b.dropsTransmission());
}

TEST(FailureModelTest, ZeroProbabilityNeverDrops) {
  FailureModel f(99);
  f.setDropProbability(0.0);
  EXPECT_FALSE(f.hasTransientLoss());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(f.dropsTransmission());
}

TEST(FailureModelTest, CertainProbabilityAlwaysDrops) {
  FailureModel f(99);
  f.setDropProbability(1.0);
  EXPECT_TRUE(f.hasTransientLoss());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(f.dropsTransmission());
}

TEST(FailureModelTest, BurstParamsValidated) {
  FailureModel f;
  BurstLossParams p;
  p.pEnterBurst = -0.1;
  EXPECT_THROW(f.setBurstModel(p), PreconditionError);
  p.pEnterBurst = 0.5;
  p.pExitBurst = 1.5;
  EXPECT_THROW(f.setBurstModel(p), PreconditionError);
  p.pExitBurst = 0.5;
  p.dropBurst = 2.0;
  EXPECT_THROW(f.setBurstModel(p), PreconditionError);
}

TEST(FailureModelTest, BurstChainFollowsTransitions) {
  // pEnter = 1: the chain enters the burst state on the very first
  // attempt (state advances before the drop coin), so with dropBurst = 1
  // that attempt already drops.
  FailureModel f(3);
  BurstLossParams p;
  p.pEnterBurst = 1.0;
  p.pExitBurst = 1.0;
  p.dropGood = 0.0;
  p.dropBurst = 1.0;
  f.setBurstModel(p);
  EXPECT_TRUE(f.hasTransientLoss());
  EXPECT_FALSE(f.inBurst());
  EXPECT_TRUE(f.dropsTransmission());
  EXPECT_TRUE(f.inBurst());
}

TEST(FailureModelTest, BurstAlternatesUnderCertainTransitions) {
  // pEnter = pExit = 1 flips state every attempt; with dropBurst = 1 and
  // dropGood = 0 the drop sequence alternates deterministically.
  FailureModel f(3);
  BurstLossParams p;
  p.pEnterBurst = 1.0;
  p.pExitBurst = 1.0;
  p.dropGood = 0.0;
  p.dropBurst = 1.0;
  f.setBurstModel(p);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(f.dropsTransmission());   // good -> burst
    EXPECT_FALSE(f.dropsTransmission());  // burst -> good
  }
}

TEST(FailureModelTest, BurstDeterministicGivenSeed) {
  BurstLossParams p;
  p.pEnterBurst = 0.1;
  p.pExitBurst = 0.4;
  p.dropGood = 0.05;
  p.dropBurst = 0.9;
  FailureModel a(77), b(77);
  a.setBurstModel(p);
  b.setBurstModel(p);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.dropsTransmission(), b.dropsTransmission());
    EXPECT_EQ(a.inBurst(), b.inBurst());
  }
}

TEST(FailureModelTest, JamZoneGeometryAndWindow) {
  JamZone z;
  z.center = {100.0, 100.0};
  z.radius = 50.0;
  z.fromRound = 5;
  z.toRound = 10;
  EXPECT_TRUE(z.covers({100.0, 149.9}));
  EXPECT_TRUE(z.covers({100.0, 150.0}));  // boundary is inside
  EXPECT_FALSE(z.covers({100.0, 150.1}));
  EXPECT_FALSE(z.activeAt(4));
  EXPECT_TRUE(z.activeAt(5));
  EXPECT_TRUE(z.activeAt(9));
  EXPECT_FALSE(z.activeAt(10));  // toRound is exclusive
}

TEST(FailureModelTest, JammingNeedsPositions) {
  FailureModel f;
  JamZone z;
  z.center = {0.0, 0.0};
  z.radius = 10.0;
  f.addJamZone(z);
  // No positions yet: nothing is jammed.
  EXPECT_FALSE(f.isJammed(0, 0));
  f.setPositions({{0.0, 0.0}, {100.0, 0.0}});
  EXPECT_TRUE(f.isJammed(0, 0));
  EXPECT_FALSE(f.isJammed(1, 0));
  // Ids beyond the position vector are unjammable.
  EXPECT_FALSE(f.isJammed(7, 0));
}

TEST(FailureModelTest, JamWindowRespected) {
  FailureModel f;
  JamZone z;
  z.center = {0.0, 0.0};
  z.radius = 10.0;
  z.fromRound = 3;
  z.toRound = 6;
  f.addJamZone(z);
  f.setPositions({{1.0, 1.0}});
  EXPECT_FALSE(f.isJammed(0, 2));
  EXPECT_TRUE(f.isJammed(0, 3));
  EXPECT_TRUE(f.isJammed(0, 5));
  EXPECT_FALSE(f.isJammed(0, 6));
}

}  // namespace
}  // namespace dsn
