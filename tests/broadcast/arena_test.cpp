// Unit tests for the arena rivals (gossip, adaptive gossip, counter- and
// distance-based suppression, RLNC) and regression tests for the
// CFF-family-only assumptions the arena surfaced: reliable mode and the
// in-flight engine require a slotted scheme, and distance-based
// suppression requires node positions.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "broadcast/inflight.hpp"
#include "broadcast/reliable.hpp"
#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"
#include "util/error.hpp"

namespace dsn {
namespace {

NetworkConfig paperNetwork(std::size_t n, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return cfg;
}

SensorNetwork gridNet(std::size_t n) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.deployment = DeploymentKind::kGrid;
  return SensorNetwork(cfg);
}

// ---- roster plumbing ----

TEST(ArenaTest, SchemeWordsRoundTrip) {
  const std::string_view words[] = {"dfo",     "cff",     "icff",
                                    "flood",   "gossip",  "agossip",
                                    "counter", "distance", "rlnc"};
  static_assert(std::size(words) == kAllBroadcastSchemes.size());
  for (std::size_t i = 0; i < kAllBroadcastSchemes.size(); ++i) {
    BroadcastScheme parsed{};
    EXPECT_TRUE(parseBroadcastScheme(words[i], parsed)) << words[i];
    EXPECT_EQ(parsed, kAllBroadcastSchemes[i]) << words[i];
    EXPECT_NE(std::string_view(toString(kAllBroadcastSchemes[i])), "?");
  }
  BroadcastScheme parsed{};
  EXPECT_FALSE(parseBroadcastScheme("warp", parsed));
  EXPECT_FALSE(parseBroadcastScheme("", parsed));
}

TEST(ArenaTest, SchemeClassPredicatesPartitionTheRoster) {
  for (const BroadcastScheme s : kAllBroadcastSchemes) {
    EXPECT_NE(isClusterScheme(s), isRandomizedScheme(s)) << toString(s);
    if (isSlottedScheme(s)) {
      EXPECT_TRUE(isClusterScheme(s)) << toString(s);
    }
  }
  EXPECT_TRUE(isSlottedScheme(BroadcastScheme::kCff));
  EXPECT_TRUE(isSlottedScheme(BroadcastScheme::kImprovedCff));
  EXPECT_FALSE(isSlottedScheme(BroadcastScheme::kDfo));
  EXPECT_FALSE(isSlottedScheme(BroadcastScheme::kGossip));
}

// ---- behavior on a clean, well-connected deployment ----

TEST(ArenaTest, RivalsDeliverOnCleanGrid) {
  // A 100-node grid is dense and connected: the suppression schemes and
  // plain gossip at p=0.65 reach (nearly) everyone; every run satisfies
  // the structural basics the fuzz oracle battery also checks.
  const SensorNetwork net = gridNet(100);
  const NodeId source = net.clusterNet().root();
  ProtocolOptions opts;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kFlooding, BroadcastScheme::kGossip,
        BroadcastScheme::kGossipAdaptive, BroadcastScheme::kCounter,
        BroadcastScheme::kDistance, BroadcastScheme::kRlnc}) {
    SCOPED_TRACE(toString(scheme));
    const auto run = net.broadcast(scheme, source, 0xBEEF, opts);
    EXPECT_EQ(run.intended, 100u);
    EXPECT_GE(run.delivered, 1u);  // the source always counts
    EXPECT_LE(run.delivered, run.intended);
    EXPECT_EQ(run.deliveryRound[source], 0);
    EXPECT_GT(run.transmissions, 0u);
    EXPECT_EQ(run.decodeFailures, 0u);
    // RLNC's default budgets drown in collisions on a dense grid (its
    // decode story is RlncDecodesFullGenerationOnDenseNet, with budgets
    // sized for the topology); everyone else spreads well here.
    if (scheme != BroadcastScheme::kRlnc) {
      EXPECT_GE(run.coverage(), 0.5);
    }
  }
}

TEST(ArenaTest, RunsAreSeedDeterministic) {
  const SensorNetwork net(paperNetwork(120, 0xA4E7A10));
  const NodeId source = net.clusterNet().root();
  ProtocolOptions opts;
  opts.arena.seed = 0x1234;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kGossip, BroadcastScheme::kCounter,
        BroadcastScheme::kDistance, BroadcastScheme::kRlnc}) {
    SCOPED_TRACE(toString(scheme));
    const auto a = net.broadcast(scheme, source, 5, opts);
    const auto b = net.broadcast(scheme, source, 5, opts);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.lastDeliveryRound, b.lastDeliveryRound);
    EXPECT_EQ(a.transmissions, b.transmissions);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.deliveryRound, b.deliveryRound);
  }
}

TEST(ArenaTest, GossipSeedChangesTheCoinFlips) {
  const SensorNetwork net(paperNetwork(120, 0xA4E7A11));
  const NodeId source = net.clusterNet().root();
  ProtocolOptions a;
  a.arena.seed = 1;
  ProtocolOptions b;
  b.arena.seed = 2;
  const auto ra = net.broadcast(BroadcastScheme::kGossip, source, 5, a);
  const auto rb = net.broadcast(BroadcastScheme::kGossip, source, 5, b);
  // Different relay coins and backoffs: the runs cannot be identical in
  // every observable (collision here would mean the seed is ignored).
  EXPECT_TRUE(ra.transmissions != rb.transmissions ||
              ra.deliveryRound != rb.deliveryRound);
}

TEST(ArenaTest, CounterThresholdControlsSuppression) {
  // Threshold 1 suppresses a relay after a single overheard duplicate;
  // a huge threshold never suppresses, degenerating to flooding with a
  // listen-heavy schedule. Strictly fewer transmissions at threshold 1.
  const SensorNetwork net = gridNet(100);
  const NodeId source = net.clusterNet().root();
  ProtocolOptions tight;
  tight.arena.counterThreshold = 1;
  ProtocolOptions loose;
  loose.arena.counterThreshold = 1000;
  const auto few = net.broadcast(BroadcastScheme::kCounter, source, 5, tight);
  const auto many = net.broadcast(BroadcastScheme::kCounter, source, 5, loose);
  EXPECT_LT(few.transmissions, many.transmissions);
}

TEST(ArenaTest, DistanceRadiusControlsSuppression) {
  // Radius 0 suppresses nobody (no sender is within distance 0);
  // a field-sized radius suppresses every receiver except the ones
  // that never hear a close transmitter — i.e. nearly everyone.
  const SensorNetwork net = gridNet(100);
  const NodeId source = net.clusterNet().root();
  ProtocolOptions none;
  none.arena.suppressRadius = 0.0;
  ProtocolOptions all;
  all.arena.suppressRadius = 1e9;
  const auto many = net.broadcast(BroadcastScheme::kDistance, source, 5, none);
  const auto few = net.broadcast(BroadcastScheme::kDistance, source, 5, all);
  EXPECT_LT(few.transmissions, many.transmissions);
}

TEST(ArenaTest, NonDefaultTuningIsPinned) {
  // Every ArenaTuning field moved off its default, with same-typed
  // fields given distinct values, so a field wired to the wrong knob
  // changes some run. The six flat rivals run on two seeded nets and a
  // grid, clean and under 10% drop, and every run's outcome folds into
  // one FNV-1a digest.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto mix = [&digest](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (x >> (8 * byte)) & 0xFFu;
      digest *= 0x100000001b3ull;
    }
  };
  ProtocolOptions opts;
  opts.arena.gossipProbability = 0.8;
  opts.arena.adaptiveFanout = 2.5;
  opts.arena.counterThreshold = 2;
  opts.arena.suppressRadius = 30.0;
  opts.arena.contentionWindow = 5;
  opts.arena.rlncSourceBudget = 9;
  opts.arena.rlncRelayBudget = 4;
  opts.arena.seed = 0x7E57A12Eull;
  opts.failureSeed = 0xD409ull;
  const SensorNetwork nets[] = {SensorNetwork(paperNetwork(90, 0xA4E7A15)),
                                SensorNetwork(paperNetwork(140, 0xA4E7A16)),
                                gridNet(64)};
  for (const SensorNetwork& net : nets) {
    for (const double drop : {0.0, 0.1}) {
      opts.dropProbability = drop;
      for (const BroadcastScheme scheme : kAllBroadcastSchemes) {
        if (isClusterScheme(scheme)) continue;
        const auto run =
            net.broadcast(scheme, net.clusterNet().root(), 0x5EED, opts);
        mix(run.delivered);
        mix(static_cast<std::uint64_t>(run.lastDeliveryRound));
        mix(run.transmissions);
        mix(run.collisions);
        mix(run.decodeFailures);
        for (const Round r : run.deliveryRound)
          mix(static_cast<std::uint64_t>(r));
      }
    }
  }
  EXPECT_EQ(digest, 0x55E4440C3AE08FC5ull);
}

TEST(ArenaTest, RlncDecodesFullGenerationOnDenseNet) {
  // On a dense grid with a generous packet budget every reached node
  // collects four innovative packets and decodes; decodeFailures != 0
  // would mean the field or elimination code corrupted a symbol.
  const SensorNetwork net = gridNet(64);
  const NodeId source = net.clusterNet().root();
  ProtocolOptions opts;
  opts.arena.rlncSourceBudget = 24;
  opts.arena.rlncRelayBudget = 12;
  const auto run = net.broadcast(BroadcastScheme::kRlnc, source, 0xCAFE, opts);
  EXPECT_EQ(run.decodeFailures, 0u);
  EXPECT_GT(run.delivered, 1u);
}

// ---- latent-assumption audit regressions ----

TEST(ArenaTest, ReliableModeRejectsNonSlottedSchemes) {
  const SensorNetwork net(paperNetwork(60, 0xA4E7A12));
  const NodeId source = net.clusterNet().root();
  ReliableOptions opts;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kDfo, BroadcastScheme::kFlooding,
        BroadcastScheme::kGossip, BroadcastScheme::kRlnc}) {
    SCOPED_TRACE(toString(scheme));
    EXPECT_THROW(net.reliableBroadcast(scheme, source, 1, opts),
                 PreconditionError);
  }
  EXPECT_NO_THROW(
      net.reliableBroadcast(BroadcastScheme::kCff, source, 1, opts));
}

TEST(ArenaTest, InFlightEngineRejectsNonSlottedSchemes) {
  const SensorNetwork net(paperNetwork(60, 0xA4E7A13));
  const NodeId source = net.clusterNet().root();
  ProtocolOptions opts;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kDfo, BroadcastScheme::kGossip,
        BroadcastScheme::kCounter}) {
    SCOPED_TRACE(toString(scheme));
    EXPECT_THROW(
        InFlightBroadcast(net.clusterNet(), scheme, source, 1, opts),
        PreconditionError);
  }
}

TEST(ArenaTest, DistanceBroadcastRequiresPositions) {
  // Direct graph callers must supply ProtocolOptions::nodePositions;
  // SensorNetwork::broadcast fills them automatically (tested above).
  const SensorNetwork net(paperNetwork(60, 0xA4E7A14));
  ProtocolOptions bare;
  EXPECT_THROW(runRivalBroadcast(BroadcastScheme::kDistance, net.graph(),
                                 net.clusterNet().root(), 1, bare),
               PreconditionError);
}

}  // namespace
}  // namespace dsn
