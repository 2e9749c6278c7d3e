// ServeEngine: record purity (solo == batched, any worker count, warm
// or cold), stream-order emission, in-place error records, warm-cache
// hit-rate and CSR freshness over a mixed stream, and the mutating-job
// private-build rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_value.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"

namespace dsn::serve {
namespace {

/// Engine records carry a telemetry section per job, so the purity
/// tests run with observability on — the harder configuration, since a
/// leaked instrument name or misattributed build counter would show up
/// as a byte diff.
class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::setEnabled(true); }
  void TearDown() override { obs::setEnabled(false); }
};

std::vector<std::string> serveAll(const std::vector<ServeJob>& jobs,
                                  int workers, std::size_t cacheCapacity,
                                  ServeReport* report = nullptr) {
  ServeOptions options;
  options.jobs = workers;
  options.cacheCapacity = cacheCapacity;
  ServeEngine engine(options);
  std::vector<std::string> records;
  records.reserve(jobs.size());
  const ServeReport r = engine.serveJobs(
      jobs, [&](std::string_view rec) { records.emplace_back(rec); });
  if (report != nullptr) *report = r;
  return records;
}

TEST_F(ServeEngineTest, BatchIsByteIdenticalAcrossWorkerCounts) {
  const auto jobs = demoJobs(40, 2007, 100, 6, 16, 4);
  ServeReport r1;
  const auto at1 = serveAll(jobs, 1, 64, &r1);
  const auto at2 = serveAll(jobs, 2, 64);
  const auto at8 = serveAll(jobs, 8, 64);
  ASSERT_EQ(at1.size(), jobs.size());
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.jobsRun, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(at1[i], at2[i]) << "job " << i << " differs at --jobs 2";
    EXPECT_EQ(at1[i], at8[i]) << "job " << i << " differs at --jobs 8";
  }
}

TEST_F(ServeEngineTest, SoloRunMatchesBatchedRecordByteForByte) {
  const auto jobs = demoJobs(100, 2007, 100, 6, 16, 4);
  const auto batched = serveAll(jobs, 8, 64);
  ASSERT_EQ(batched.size(), jobs.size());

  // A light job, a heavy one, a mutating one, and the tail — each run
  // alone on a fresh cold engine must reproduce its batch record
  // exactly: the record is a pure function of the job line, not of
  // batch position, worker count, or cache state.
  for (const std::size_t i : {std::size_t{0}, std::size_t{3},
                              std::size_t{15}, std::size_t{57},
                              std::size_t{99}}) {
    ServeJob solo = jobs[i];
    solo.index = 0;
    const auto records = serveAll({solo}, 1, 64);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0], batched[i]) << "job " << i << " solo != batched";
  }
}

TEST_F(ServeEngineTest, WarmAndColdCacheEmitIdenticalRecords) {
  const auto jobs = demoJobs(30, 5, 80, 3, 10, 4);
  const auto warm = serveAll(jobs, 1, 64);
  const auto cold = serveAll(jobs, 1, 0);  // bypass: build per job
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i)
    EXPECT_EQ(warm[i], cold[i]) << "job " << i << " warm != cold";
}

TEST_F(ServeEngineTest, WarmCacheHitRateOverReadOnlyStream) {
  // Read-only stream (no mutating jobs): every deployment builds once,
  // every revisit is a hit, and nothing ever invalidates the pre-warmed
  // CSR snapshot.
  const auto jobs = demoJobs(60, 2007, 80, 5, /*mutatingEvery=*/0, 4);
  std::set<std::uint64_t> unique;
  for (const auto& job : jobs) unique.insert(job.fingerprint);

  ServeReport report;
  serveAll(jobs, 1, 64, &report);
  EXPECT_EQ(report.cache.misses, unique.size());
  EXPECT_EQ(report.cache.hits, jobs.size() - unique.size());
  EXPECT_GT(report.cache.hitRate, 0.8);
  EXPECT_EQ(report.cache.csrStale, 0u)
      << "a warm lease saw a stale CSR snapshot — something rebuilt or "
         "mutated the shared network";
  EXPECT_EQ(report.cache.evictions, 0u);
}

TEST_F(ServeEngineTest, MutatingJobsNeverTouchTheSharedCache) {
  std::vector<ServeJob> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    ServeJob job;
    job.index = i;
    job.id = i;
    job.nodes = 60;
    job.seed = 9;  // same deployment every time
    job.scenarioText = "churn 1.5 2\nrepair\nvalidate";
    job.events = parseScenario(job.scenarioText);
    job.mutates = scenarioMutatesNetwork(job.events);
    ASSERT_TRUE(job.mutates);
    job.fingerprint = deploymentFingerprint(jobNetworkConfig(job));
    jobs.push_back(std::move(job));
  }
  ServeReport report;
  const auto records = serveAll(jobs, 1, 64, &report);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cache.hits + report.cache.misses, 0u)
      << "a mutating job leased the shared warm network";
  // Same line, same record — private builds are still deterministic.
  EXPECT_EQ(records[0].substr(records[0].find("\"config\"")),
            records[3].substr(records[3].find("\"config\"")));
}

TEST_F(ServeEngineTest, ServeStreamEmitsInOrderWithInPlaceErrors) {
  std::istringstream in(
      "# a comment, then a blank line\n"
      "\n"
      R"({"schema":"dsnet-job-v1","id":3,"nodes":50,"scenario":"validate"})"
      "\n"
      "this line is not json\n"
      R"({"schema":"dsnet-job-v1","id":7,"nodes":50,"scenario":"validate"})"
      "\n"
      R"({"schema":"dsnet-job-v1","id":5,"nodes":50,"scenario":"validate"})"
      "\n");
  std::ostringstream out;
  ServeEngine engine({.jobs = 2, .cacheCapacity = 8});
  const ServeReport report = engine.serveStream(in, out);

  EXPECT_EQ(report.jobsRun, 4u);
  EXPECT_EQ(report.parseErrors, 2u);  // bad json + non-increasing id 5
  EXPECT_FALSE(report.ok());

  std::vector<std::string> lines;
  std::string line;
  std::istringstream result(out.str());
  while (std::getline(result, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);

  // Every line is valid JSON; order follows the stream.
  for (const auto& l : lines) EXPECT_NO_THROW(obs::parseJson(l)) << l;
  EXPECT_NE(lines[0].find("\"schema\":\"dsnet-run-v1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"job\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"schema\":\"dsnet-error-v1\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"line\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"job\":7"), std::string::npos);
  EXPECT_NE(lines[3].find("\"schema\":\"dsnet-error-v1\""),
            std::string::npos);
  EXPECT_NE(lines[3].find("strictly increasing"), std::string::npos);
}

TEST_F(ServeEngineTest, TraceJobRecordsCarryTheEventArray) {
  const std::vector<ServeJob> jobs{parseJobLine(
      R"({"schema":"dsnet-job-v1","nodes":60,"seed":2007,"drop":0.1,)"
      R"("trace_cap":4096,"scenario":"broadcast random icff\ngather"})",
      0)};
  ASSERT_FALSE(jobs[0].failed()) << jobs[0].parseError;
  const auto records = serveAll(jobs, 1, 8);
  ASSERT_EQ(records.size(), 1u);

  const obs::JsonValue doc = obs::parseJson(records[0]);
  const obs::JsonValue& trace = doc.at("trace");
  ASSERT_EQ(trace.type, obs::JsonValue::Type::kArray);
  ASSERT_FALSE(trace.array.empty());
  EXPECT_EQ(static_cast<double>(trace.array.size()),
            doc.at("outcome").at("trace_events").number);
  EXPECT_EQ(doc.at("outcome").at("trace_dropped").number, 0.0);
  const std::set<std::string> radioTypes{
      "transmit", "receive", "collision", "dropped_transmit",
      "jammed_transmit"};
  for (const obs::JsonValue& e : trace.array) {
    ASSERT_EQ(e.type, obs::JsonValue::Type::kObject);
    EXPECT_TRUE(radioTypes.count(e.at("type").str)) << e.at("type").str;
    EXPECT_EQ(e.at("round").type, obs::JsonValue::Type::kNumber);
    EXPECT_EQ(e.at("node").type, obs::JsonValue::Type::kNumber);
    EXPECT_EQ(e.at("peer").type, e.at("type").str == "receive"
                                     ? obs::JsonValue::Type::kNumber
                                     : obs::JsonValue::Type::kNull);
    EXPECT_EQ(e.at("kind").type, obs::JsonValue::Type::kString);
  }
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Every byte of a fixed stream's records: run records with histograms,
// a traced job, a protocol override and protocol null, a mutating job,
// an invalid run with its first violation, both kinds of error record
// and a scenario whose comment needs escaping, plus the job line each
// parsed job formats to.
TEST_F(ServeEngineTest, RecordBytesArePinned) {
  const char* const kLines[] = {
      R"({"schema":"dsnet-job-v1","id":1,"nodes":60,"seed":2007,)"
      R"("scenario":"broadcast random icff\nvalidate"})",
      R"({"schema":"dsnet-job-v1","id":2,"nodes":60,"seed":2007,)"
      R"("drop":0.1,"trace_cap":4096,"scenario":"broadcast random flood"})",
      R"({"schema":"dsnet-job-v1","id":3,"nodes":50,"seed":11,)"
      R"("field_units":6,"range":40.5,"deploy":"grid","channels":3,)"
      R"("protocol":"gossip","scenario":"broadcast random icff"})",
      R"({"schema":"dsnet-job-v1","id":4,"nodes":60,"seed":5,)"
      R"("auto_repair":true,)"
      R"("scenario":"churn 1.5 2\nrepair\nvalidate\nbroadcast random cff"})",
      R"({"schema":"dsnet-job-v1","id":5,"nodes":40,"seed":9,)"
      R"("scenario":"crash 3\nvalidate"})",
      "this line is not json",
      R"({"schema":"dsnet-job-v1","id":7,"nodes":40,"drop":1.5,)"
      R"("scenario":"validate"})",
      R"({"schema":"dsnet-job-v1","id":8,"nodes":40,"seed":3,)"
      R"("scenario":"# say \"hi\" \\ tab\there \u0001 end\nvalidate"})",
      R"({"schema":"dsnet-job-v1","id":9,"nodes":60,"seed":4,)"
      R"("scenario":"faults drop 0.1\nrbroadcast random icff 6\ngather"})",
      R"({"schema":"dsnet-job-v1","id":10,"nodes":50,"seed":6,)"
      R"("scenario":"broadcast random rlnc"})",
      R"({"schema":"dsnet-job-v1","id":11,"nodes":40,"seed":8,)"
      R"("protocol":"dfo","scenario":"broadcast 0 icff\ngather"})",
      R"({"schema":"dsnet-job-v1","id":12,"nodes":30,"seed":2,)"
      R"("scenario":"arena 0"})",
  };
  std::vector<ServeJob> jobs;
  std::uint64_t lastId = 0;
  for (const char* line : kLines) {
    const std::size_t index = jobs.size();
    jobs.push_back(parseJobLine(line, index, index > 0 ? &lastId : nullptr));
    lastId = jobs.back().id;
  }
  const auto records = serveAll(jobs, 1, 8);
  ASSERT_EQ(records.size(), jobs.size());

  // The stream covers what the digest is meant to pin.
  std::vector<obs::JsonValue> docs;
  for (const auto& r : records) docs.push_back(obs::parseJson(r));
  EXPECT_FALSE(docs[0].at("metrics").at("histograms").object.empty());
  std::set<std::string> traced;
  for (const auto& e : docs[1].at("trace").array)
    traced.insert(e.at("type").str);
  for (const char* type : {"receive", "transmit", "collision"})
    EXPECT_TRUE(traced.count(type)) << type;
  EXPECT_EQ(docs[2].at("config").at("protocol").str, "gossip");
  EXPECT_EQ(docs[0].at("config").at("protocol").type,
            obs::JsonValue::Type::kNull);
  EXPECT_TRUE(docs[3].at("config").at("mutates").boolean);
  EXPECT_FALSE(docs[4].at("outcome").at("valid").boolean);
  EXPECT_FALSE(docs[4].at("outcome").at("first_violation").str.empty());
  EXPECT_EQ(docs[5].at("schema").str, "dsnet-error-v1");
  EXPECT_EQ(docs[6].at("schema").str, "dsnet-error-v1");
  EXPECT_NE(docs[6].at("error").str.find("drop"), std::string::npos);
  EXPECT_EQ(docs[7].at("config").at("scenario").str,
            "# say \"hi\" \\ tab\there \x01 end\nvalidate");
  EXPECT_EQ(docs[11].at("outcome").at("arenas").number, 1.0);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    h = fnv1a(h, records[i]);
    h = fnv1a(h, "\n");
    if (jobs[i].failed()) continue;
    h = fnv1a(h, formatJobLine(jobs[i]));
    h = fnv1a(h, "\n");
  }
  EXPECT_EQ(h, 0xf26ddca4e480fc77ULL) << std::hex << h;
}

TEST_F(ServeEngineTest, PoolIsCappedAtTheJobCount) {
  const auto jobs = demoJobs(3, 2007, 60, 2, 0, 0);
  ServeReport wide;
  const auto at16 = serveAll(jobs, 16, 64, &wide);
  EXPECT_EQ(wide.workers, 3u);
  EXPECT_EQ(at16, serveAll(jobs, 1, 64));
}

TEST_F(ServeEngineTest, ErrorRecordNamesNoSourceFile) {
  // A failed precondition's text reaches the record. It must not carry
  // the checkout path or a line number, or two checkouts of one commit
  // would emit different bytes for one job line.
  std::istringstream in(
      R"({"schema":"dsnet-job-v1","id":1,"nodes":40,"scenario":"leave 99999"})"
      "\n");
  std::ostringstream out;
  ServeEngine engine;
  EXPECT_EQ(engine.serveStream(in, out).jobsFailed, 1u);
  EXPECT_EQ(out.str(),
            R"({"schema":"dsnet-error-v1","tool":"wsn_serve","job":1,)"
            R"("line":1,"error":"precondition failed: )"
            R"(net.clusterNet().contains(e.node) — scenario: leave of )"
            R"(node not in net"})"
            "\n");
}

TEST_F(ServeEngineTest, LeaveOfCrashedNodeIsAScenarioError) {
  // A crashed node stays in the net until a repair; the scenario refuses
  // to leave it before the network's unit-disk index is asked.
  std::istringstream in(
      R"({"schema":"dsnet-job-v1","id":7,"nodes":40,)"
      R"("scenario":"crash 5\nleave 5"})"
      "\n");
  std::ostringstream out;
  ServeEngine engine;
  EXPECT_EQ(engine.serveStream(in, out).jobsFailed, 1u);
  EXPECT_EQ(out.str(),
            R"({"schema":"dsnet-error-v1","tool":"wsn_serve","job":7,)"
            R"("line":1,"error":"precondition failed: )"
            R"(net.graph().isAlive(e.node) — scenario: leave of )"
            R"(node not deployed"})"
            "\n");
}

TEST_F(ServeEngineTest, RecordsOmitTimingUnlessRequested) {
  std::vector<ServeJob> jobs{parseJobLine(
      R"({"schema":"dsnet-job-v1","nodes":50,"scenario":"validate"})", 0)};
  ASSERT_FALSE(jobs[0].failed());
  const auto plain = serveAll(jobs, 1, 8);
  EXPECT_EQ(plain[0].find("\"timing\""), std::string::npos);

  ServeOptions options;
  options.includeTiming = true;
  ServeEngine engine(options);
  std::string withTiming;
  engine.serveJobs(jobs, [&](std::string_view r) { withTiming = r; });
  EXPECT_NE(withTiming.find("\"timing\""), std::string::npos);
}

}  // namespace
}  // namespace dsn::serve
