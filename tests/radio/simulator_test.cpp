#include "radio/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace dsn {
namespace {

/// Transmits one frame at a fixed round, then is done.
class OneShotTransmitter : public NodeProtocol {
 public:
  OneShotTransmitter(NodeId self, Round when) : self_(self), when_(when) {}
  Action onRound(Round r) override {
    if (r == when_) {
      Message m;
      m.sender = self_;
      m.payload = 77;
      sent_ = true;
      return Action::transmit(m);
    }
    return Action::sleep();
  }
  void onReceive(const Message&, Round, Channel) override {}
  bool isDone() const override { return sent_; }

 private:
  NodeId self_;
  Round when_;
  bool sent_ = false;
};

/// Listens until it receives anything, then is done.
class ListenUntilReceive : public NodeProtocol {
 public:
  Action onRound(Round) override {
    return got_ ? Action::sleep() : Action::listen();
  }
  void onReceive(const Message& m, Round r, Channel) override {
    got_ = true;
    payload_ = m.payload;
    receivedAt_ = r;
  }
  bool isDone() const override { return got_; }

  bool got_ = false;
  std::uint64_t payload_ = 0;
  Round receivedAt_ = -1;
};

Graph pair() {
  Graph g(2);
  g.addEdge(0, 1);
  return g;
}

TEST(SimulatorTest, DeliversBetweenTwoNodes) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 2));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));

  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(lp->got_);
  EXPECT_EQ(lp->payload_, 77u);
  EXPECT_EQ(lp->receivedAt_, 2);
  EXPECT_EQ(r.totalTransmissions, 1u);
  EXPECT_EQ(r.totalDeliveries, 1u);
  EXPECT_EQ(r.rounds, 3);  // rounds 0,1,2 executed; done detected at 3
}

TEST(SimulatorTest, EnergyAccounting) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 2));
  sim.setProtocol(1, std::make_unique<ListenUntilReceive>());
  sim.run();
  EXPECT_EQ(sim.energy().node(0).transmitRounds, 1u);
  EXPECT_EQ(sim.energy().node(0).listenRounds, 0u);
  EXPECT_EQ(sim.energy().node(1).listenRounds, 3u);  // rounds 0..2
  EXPECT_EQ(sim.energy().node(1).framesReceived, 1u);
  EXPECT_EQ(sim.energy().node(1).awakeRounds(), 3u);
  EXPECT_EQ(sim.energy().maxAwakeRounds(), 3u);
}

TEST(SimulatorTest, NodesWithoutProtocolSleep) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  // Nodes 1 and 2 have no protocol; run ends after 0 transmits.
  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.totalDeliveries, 0u);
}

TEST(SimulatorTest, MaxRoundsStopsHangingProtocol) {
  const Graph g = pair();
  SimConfig cfg;
  cfg.maxRounds = 10;
  RadioSimulator sim(g, cfg);
  sim.setProtocol(1, std::make_unique<ListenUntilReceive>());  // never gets
  const SimResult r = sim.run();
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 10);
}

TEST(SimulatorTest, RunTwiceRejected) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.run();
  EXPECT_THROW(sim.run(), PreconditionError);
}

TEST(SimulatorTest, DeadNodeNeitherActsNorReceives) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 1));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  sim.failures().killAt(1, 0);
  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);  // dead node doesn't block completion
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(sim.energy().node(1).listenRounds, 0u);
}

TEST(SimulatorTest, DeathMidRunStopsParticipation) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 5));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  sim.failures().killAt(1, 3);  // dies before the round-5 transmission
  sim.run();
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(sim.energy().node(1).listenRounds, 3u);  // rounds 0..2
}

TEST(SimulatorTest, DroppedTransmissionCostsEnergyButNothingArrives) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  sim.failures().setDropProbability(1.0);
  const SimResult r = sim.run();
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(r.droppedTransmissions, 1u);
  EXPECT_EQ(r.totalTransmissions, 0u);  // never went on air
  EXPECT_EQ(sim.energy().node(0).transmitRounds, 1u);  // energy spent
}

TEST(SimulatorTest, TraceRecordsEvents) {
  const Graph g = pair();
  SimConfig cfg;
  cfg.traceCapacity = 100;
  RadioSimulator sim(g, cfg);
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  sim.setProtocol(1, std::make_unique<ListenUntilReceive>());
  sim.run();
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kTransmit), 1u);
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kDelivery), 1u);
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kCollision), 0u);
}

TEST(SimulatorTest, ChannelCountMustFitTheTraceRecord) {
  const Graph g = pair();
  for (const Channel k : {Channel{0}, kMaxChannels + 1, Channel{4294967295u}}) {
    SimConfig cfg;
    cfg.channelCount = k;
    EXPECT_THROW({ RadioSimulator sim(g, cfg); }, PreconditionError) << k;
  }
  SimConfig widest;
  widest.channelCount = kMaxChannels;
  EXPECT_NO_THROW({ RadioSimulator sim(g, widest); });
}

TEST(SimulatorTest, ProtocolAfterRunRejected) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.run();
  EXPECT_THROW(sim.setProtocol(0, std::make_unique<ListenUntilReceive>()),
               PreconditionError);
}

TEST(SimulatorTest, CollisionObservedInTrace) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(2, 1);
  SimConfig cfg;
  cfg.traceCapacity = 100;
  cfg.maxRounds = 20;  // listener starves; don't run the default budget
  RadioSimulator sim(g, cfg);
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  sim.setProtocol(2, std::make_unique<OneShotTransmitter>(2, 0));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  SimResult r = sim.run();
  EXPECT_FALSE(r.completed);  // listener starves (hits maxRounds)...
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kCollision), 1u);
}

}  // namespace
}  // namespace dsn
