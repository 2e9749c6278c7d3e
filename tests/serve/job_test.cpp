// dsnet-job-v1 line protocol: parse/format round-trips, defaults that
// match the wsn_sim CLI, error reporting that never throws, the
// strictly-increasing id rule, and the deployment fingerprint / share-
// safety classification the warm cache is keyed on.
#include <gtest/gtest.h>

#include <set>

#include "core/scenario.hpp"
#include "core/sensor_network.hpp"
#include "serve/job.hpp"

namespace dsn::serve {
namespace {

TEST(ServeJob, ParsesMinimalLineWithDefaults) {
  const ServeJob job = parseJobLine(
      R"({"schema":"dsnet-job-v1","nodes":120,"scenario":"validate"})", 3);
  ASSERT_FALSE(job.failed()) << job.parseError;
  EXPECT_EQ(job.index, 3u);
  EXPECT_EQ(job.id, 3u);  // defaults to the line index
  EXPECT_EQ(job.nodes, 120u);
  EXPECT_EQ(job.seed, 1u);
  EXPECT_EQ(job.fieldUnits, 10);
  EXPECT_DOUBLE_EQ(job.range, 50.0);
  EXPECT_EQ(job.deploy, DeploymentKind::kIncrementalAttach);
  EXPECT_EQ(job.channels, 1u);
  EXPECT_DOUBLE_EQ(job.drop, 0.0);
  EXPECT_FALSE(job.protocol.has_value());
  EXPECT_EQ(job.traceCapacity, 0u);
  EXPECT_FALSE(job.autoRepair);
  EXPECT_EQ(job.events.size(), 1u);
  EXPECT_FALSE(job.mutates);
  EXPECT_NE(job.fingerprint, 0u);
}

TEST(ServeJob, ParsesEveryKnob) {
  // "threads" is a retired key; like any unknown key it is ignored.
  const ServeJob job = parseJobLine(
      R"({"schema":"dsnet-job-v1","id":9,"nodes":80,"seed":2007,)"
      R"("field_units":6,"range":40.5,"deploy":"grid","channels":3,)"
      R"("drop":0.25,"protocol":"gossip","trace_cap":64,"threads":2,)"
      R"("auto_repair":true,"scenario":"broadcast random icff\ngather"})",
      0);
  ASSERT_FALSE(job.failed()) << job.parseError;
  EXPECT_EQ(job.id, 9u);
  EXPECT_EQ(job.nodes, 80u);
  EXPECT_EQ(job.seed, 2007u);
  EXPECT_EQ(job.fieldUnits, 6);
  EXPECT_DOUBLE_EQ(job.range, 40.5);
  EXPECT_EQ(job.deploy, DeploymentKind::kGrid);
  EXPECT_EQ(job.channels, 3u);
  EXPECT_DOUBLE_EQ(job.drop, 0.25);
  ASSERT_TRUE(job.protocol.has_value());
  EXPECT_EQ(*job.protocol, BroadcastScheme::kGossip);
  EXPECT_EQ(job.traceCapacity, 64u);
  EXPECT_TRUE(job.autoRepair);
  EXPECT_EQ(job.events.size(), 2u);
}

TEST(ServeJob, FormatParseRoundTrip) {
  for (const ServeJob& original : demoJobs(40, 11, 150, 5)) {
    const std::string line = formatJobLine(original);
    const ServeJob parsed = parseJobLine(line, original.index);
    ASSERT_FALSE(parsed.failed()) << line << " -> " << parsed.parseError;
    EXPECT_EQ(parsed.id, original.id);
    EXPECT_EQ(parsed.nodes, original.nodes);
    EXPECT_EQ(parsed.seed, original.seed);
    EXPECT_EQ(parsed.scenarioText, original.scenarioText);
    EXPECT_EQ(parsed.mutates, original.mutates);
    EXPECT_EQ(parsed.fingerprint, original.fingerprint);
    EXPECT_EQ(formatJobLine(parsed), line);
  }
}

TEST(ServeJob, MalformedLinesReportInsteadOfThrow) {
  const char* const kBad[] = {
      "",                                                      // empty
      "not json",                                              // not JSON
      "[1,2,3]",                                               // not object
      R"({"schema":"dsnet-job-v2","nodes":10,"scenario":""})",  // schema
      R"({"schema":"dsnet-job-v1","scenario":"validate"})",     // no nodes
      R"({"schema":"dsnet-job-v1","nodes":0,"scenario":""})",   // zero nodes
      R"({"schema":"dsnet-job-v1","nodes":10})",                // no scenario
      R"({"schema":"dsnet-job-v1","nodes":10,"range":-1,"scenario":""})",
      R"({"schema":"dsnet-job-v1","nodes":10,"drop":1.0,"scenario":""})",
      R"({"schema":"dsnet-job-v1","nodes":10,"deploy":"ring","scenario":""})",
      R"({"schema":"dsnet-job-v1","nodes":10,"protocol":"x","scenario":""})",
      R"({"schema":"dsnet-job-v1","nodes":10,"scenario":"frobnicate"})",
  };
  for (const char* line : kBad) {
    const ServeJob job = parseJobLine(line, 7);
    EXPECT_TRUE(job.failed()) << "accepted: " << line;
    EXPECT_EQ(job.index, 7u);
  }
}

TEST(ServeJob, IdsMustStrictlyIncrease) {
  const std::uint64_t previous = 5;
  const ServeJob ok = parseJobLine(
      R"({"schema":"dsnet-job-v1","id":6,"nodes":10,"scenario":"validate"})",
      1, &previous);
  EXPECT_FALSE(ok.failed()) << ok.parseError;
  for (const char* line :
       {R"({"schema":"dsnet-job-v1","id":5,"nodes":10,"scenario":""})",
        R"({"schema":"dsnet-job-v1","id":4,"nodes":10,"scenario":""})"}) {
    const ServeJob dup = parseJobLine(line, 1, &previous);
    EXPECT_TRUE(dup.failed()) << "accepted non-increasing id: " << line;
  }
}

TEST(ServeJob, FingerprintCoversEveryDeploymentKnob) {
  ServeJob base;
  base.nodes = 100;
  base.seed = 42;
  base.scenarioText = "validate";
  const std::uint64_t fp = deploymentFingerprint(jobNetworkConfig(base));

  // Identical job -> identical fingerprint (the cache-hit guarantee).
  EXPECT_EQ(deploymentFingerprint(jobNetworkConfig(base)), fp);

  // Any deployment-affecting knob must change the key.
  std::set<std::uint64_t> fps{fp};
  auto expectFresh = [&](const ServeJob& changed) {
    const std::uint64_t f = deploymentFingerprint(jobNetworkConfig(changed));
    EXPECT_TRUE(fps.insert(f).second)
        << "fingerprint collision on a changed deployment knob";
  };
  ServeJob j = base;
  j.nodes = 101;
  expectFresh(j);
  j = base;
  j.seed = 43;
  expectFresh(j);
  j = base;
  j.fieldUnits = 11;
  expectFresh(j);
  j = base;
  j.range = 49.0;
  expectFresh(j);
  j = base;
  j.deploy = DeploymentKind::kGrid;
  expectFresh(j);
  j = base;
  j.autoRepair = true;
  expectFresh(j);

  // Scenario/runtime knobs are NOT part of the deployment: two jobs
  // that differ only in what they run share the warm network.
  j = base;
  j.scenarioText = "broadcast random icff";
  j.drop = 0.2;
  j.channels = 3;
  EXPECT_EQ(deploymentFingerprint(jobNetworkConfig(j)), fp);
}

TEST(ServeJob, ShareSafetyClassification) {
  const char* const kReadOnly[] = {
      "broadcast random icff", "broadcast random rlnc",
      "rbroadcast random icff 6", "gather", "validate",
      "faults drop 0.1\nbroadcast random cff",
  };
  for (const char* text : kReadOnly)
    EXPECT_FALSE(scenarioMutatesNetwork(parseScenario(text))) << text;
  const char* const kMutating[] = {
      "churn 1.5 2", "repair", "compact",
      "churn 1.5 2\nrepair\nvalidate\nbroadcast random icff",
  };
  for (const char* text : kMutating)
    EXPECT_TRUE(scenarioMutatesNetwork(parseScenario(text))) << text;
}

TEST(ServeJob, DemoWorkloadIsWellFormed) {
  const auto jobs = demoJobs(64, 2007, 200, 8, 16, 4);
  ASSERT_EQ(jobs.size(), 64u);
  std::size_t mutating = 0;
  std::size_t heavy = 0;
  for (const auto& job : jobs) {
    EXPECT_FALSE(job.failed());
    EXPECT_FALSE(job.events.empty());
    if (job.mutates) ++mutating;
    if (job.nodes != 200) ++heavy;
  }
  EXPECT_EQ(mutating, 4u);  // every 16th
  EXPECT_EQ(heavy, 12u);    // every 4th, minus the mutating collisions
  // Deterministic: same arguments, same jobs.
  const auto again = demoJobs(64, 2007, 200, 8, 16, 4);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(formatJobLine(jobs[i]), formatJobLine(again[i]));
}

}  // namespace
}  // namespace dsn::serve
