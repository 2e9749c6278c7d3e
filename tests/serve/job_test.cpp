// dsnet-job-v1 line protocol: parse/format round-trips, defaults that
// match the wsn_sim CLI, error reporting that never throws, the
// strictly-increasing id rule, and the deployment fingerprint / share-
// safety classification the warm cache is keyed on.
#include <gtest/gtest.h>

#include <set>

#include "core/scenario.hpp"
#include "core/sensor_network.hpp"
#include "obs/json_value.hpp"
#include "serve/engine.hpp"
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
      // Number tokens strtod reads only a prefix of (3, then 0).
      R"({"schema":"dsnet-job-v1","seed":3-9e+,"nodes":10,"scenario":""})",
      R"({"schema":"dsnet-job-v1","seed":-,"nodes":10,"scenario":""})",
      // Channel counts outside [1, kMaxChannels], including ones that
      // wrap to 0 or 255 in a 32-bit or 8-bit field.
      R"({"schema":"dsnet-job-v1","nodes":10,"channels":257,"scenario":""})",
      R"({"schema":"dsnet-job-v1","nodes":10,"channels":4294967295,)"
      R"("scenario":""})",
      R"({"schema":"dsnet-job-v1","nodes":10,"channels":4294967296,)"
      R"("scenario":""})",
  };
  for (const char* line : kBad) {
    const ServeJob job = parseJobLine(line, 7);
    EXPECT_TRUE(job.failed()) << "accepted: " << line;
    EXPECT_EQ(job.index, 7u);
    const std::string text = line;
    if (text.find("\"channels\"") != std::string::npos) {
      EXPECT_NE(job.parseError.find("channels"), std::string::npos)
          << job.parseError;
    }
    if (text.find("\"seed\"") != std::string::npos) {
      EXPECT_NE(job.parseError.find("bad number at offset"),
                std::string::npos)
          << job.parseError;
    }
  }
  // The channel bound is inclusive.
  const ServeJob widest = parseJobLine(
      R"({"schema":"dsnet-job-v1","nodes":10,"channels":256,)"
      R"("scenario":"validate"})",
      7);
  ASSERT_FALSE(widest.failed()) << widest.parseError;
  EXPECT_EQ(widest.channels, kMaxChannels);
}

TEST(ServeJob, NonFiniteAndOversizedNumbersAreParseErrors) {
  // strtod reads 1e999 as +inf, and 4294967306 would wrap to 10 when
  // narrowed to int: both are refused, naming their field.
  const ServeJob infinite = parseJobLine(
      R"({"schema":"dsnet-job-v1","id":1,"nodes":30,"seed":3,)"
      R"("range":1e999,"scenario":"broadcast 0 icff"})",
      0);
  ASSERT_TRUE(infinite.failed());
  EXPECT_NE(infinite.parseError.find("'range'"), std::string::npos)
      << infinite.parseError;
  const ServeJob wide = parseJobLine(
      R"({"schema":"dsnet-job-v1","nodes":30,"field_units":4294967306,)"
      R"("scenario":"validate"})",
      0);
  ASSERT_TRUE(wide.failed());
  EXPECT_NE(wide.parseError.find("'field_units'"), std::string::npos)
      << wide.parseError;
}

TEST(ServeJob, RangeTooSmallForTheGridGivesAnErrorRecord) {
  // The line parses, but no coordinate / 1e-300 has a 32-bit unit-disk
  // cell index: the build refuses it and the engine emits an error
  // record in its place.
  const ServeJob job = parseJobLine(
      R"({"schema":"dsnet-job-v1","nodes":30,"range":1e-300,)"
      R"("scenario":"join 5 5"})",
      0);
  ASSERT_FALSE(job.failed()) << job.parseError;
  ServeEngine engine;
  std::string record;
  const ServeReport report = engine.serveJobs(
      {job}, [&](std::string_view r) { record = std::string(r); });
  EXPECT_EQ(report.jobsFailed, 1u);
  const obs::JsonValue doc = obs::parseJson(record);
  EXPECT_EQ(doc.at("schema").str, "dsnet-error-v1");
  EXPECT_NE(doc.at("error").str.find("unit-disk"), std::string::npos)
      << record;
}

TEST(ServeJob, OutOfRangeScenarioNumberIsAParseError) {
  // A scenario number the grammar refuses fails the job line, so the
  // engine emits an error record instead of running it.
  const ServeJob job = parseJobLine(
      R"({"schema":"dsnet-job-v1","nodes":10,)"
      R"("scenario":"validate\ngroup 3 -1"})",
      0);
  ASSERT_TRUE(job.failed());
  EXPECT_NE(job.parseError.find("scenario line 2: invalid group id '-1'"),
            std::string::npos)
      << job.parseError;
  EXPECT_TRUE(job.events.empty());
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
