// One radio event stream, two sinks: the simulator offers every radio
// event to the run's bounded Trace and to the flight-recorder ring. With
// the ring recording every category every round, the scenario's
// collected per-run traces must equal the ring's radio events — same
// events, same order, field for field — under both schedulers.
#include <gtest/gtest.h>

#include <fstream>
#include <vector>

#include "core/scenario.hpp"
#include "core/sensor_network.hpp"
#include "obs/flight.hpp"

namespace dsn {
namespace {

using obs::FrEvent;
using obs::FrType;

constexpr const char* kDemoPath = DSN_SOURCE_DIR "/scenarios/demo.wsn";

// Drops, a jam zone, and two randomized rivals: every radio event type
// the per-run trace records shows up.
constexpr const char* kFaultScript =
    "faults drop 0.1\n"
    "broadcast random icff\n"
    "faults jam 0 0 100000 2 6\n"
    "broadcast random cff\n"
    "broadcast 0 gossip\n"
    "broadcast 0 rlnc\n";

bool isRadioEvent(const FrEvent& e) {
  switch (static_cast<FrType>(e.type)) {
    case FrType::kTransmit:
    case FrType::kDelivery:
    case FrType::kCollision:
    case FrType::kDroppedTransmit:
    case FrType::kJammedTransmit:
      return true;
    default:
      return false;
  }
}

std::size_t countOf(const std::vector<FrEvent>& events, FrType t) {
  std::size_t n = 0;
  for (const FrEvent& e : events)
    if (e.type == static_cast<std::uint8_t>(t)) ++n;
  return n;
}

struct Streams {
  std::vector<FrEvent> trace;  ///< ScenarioOutcome::traceEvents
  std::vector<FrEvent> ring;   ///< the ring's radio events
};

Streams runScript(const std::vector<ScenarioEvent>& events,
                  SimScheduling scheduling) {
  NetworkConfig config;
  config.nodeCount = 60;  // the golden trace's network
  config.seed = 2007;
  SensorNetwork net(config);

  obs::FlightRecorder ring;
  ring.configure({.capacity = 1 << 18,
                  .categories = obs::kFrCatAll,
                  .sampleEvery = 1});
  obs::ScopedRecorderSink sink(ring);
  ScenarioOptions options;
  options.protocol.traceCapacity = 16384;
  options.protocol.scheduling = scheduling;
  const ScenarioOutcome outcome = runScenario(net, events, options);
  EXPECT_TRUE(outcome.valid) << outcome.firstViolation;
  EXPECT_EQ(outcome.traceDropped, 0u);
  EXPECT_EQ(ring.droppedEvents(), 0u);

  Streams out;
  out.trace = outcome.traceEvents;
  for (const FrEvent& e : ring.orderedEvents())
    if (isRadioEvent(e)) out.ring.push_back(e);
  return out;
}

void expectOneStream(const Streams& s) {
  ASSERT_FALSE(s.trace.empty());
  ASSERT_EQ(s.trace.size(), s.ring.size());
  for (std::size_t i = 0; i < s.trace.size(); ++i)
    ASSERT_TRUE(s.trace[i] == s.ring[i])
        << "event " << i << ": trace " << obs::describeFrEvent(s.trace[i])
        << " vs ring " << obs::describeFrEvent(s.ring[i]);
}

TEST(TraceStreamTest, DemoTraceIsTheRingsRadioView) {
  std::ifstream in(kDemoPath);
  ASSERT_TRUE(in) << "cannot open " << kDemoPath;
  const std::vector<ScenarioEvent> demo = parseScenario(in);
  for (const SimScheduling s :
       {SimScheduling::kActiveSet, SimScheduling::kFullScan}) {
    SCOPED_TRACE(s == SimScheduling::kActiveSet ? "active set" : "full scan");
    expectOneStream(runScript(demo, s));
  }
}

TEST(TraceStreamTest, FaultTraceIsTheRingsRadioView) {
  const std::vector<ScenarioEvent> script = parseScenario(kFaultScript);
  for (const SimScheduling s :
       {SimScheduling::kActiveSet, SimScheduling::kFullScan}) {
    SCOPED_TRACE(s == SimScheduling::kActiveSet ? "active set" : "full scan");
    const Streams streams = runScript(script, s);
    expectOneStream(streams);
    EXPECT_GT(countOf(streams.trace, FrType::kDroppedTransmit), 0u);
    EXPECT_GT(countOf(streams.trace, FrType::kJammedTransmit), 0u);
    EXPECT_GT(countOf(streams.trace, FrType::kCollision), 0u);
  }
}

}  // namespace
}  // namespace dsn
