// JSON writer correctness and metrics/timing export round-trip: emit a
// document, re-parse it with obs::parseJson, and compare against the
// registry state.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/json_value.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn::obs {
namespace {

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  // Round-trip through the parser restores the original.
  JsonWriter w;
  w.beginObject().kv("s", "quote\" slash\\ ctl\n").endObject();
  const JsonValue doc = parseJson(w.str());
  EXPECT_EQ(doc.at("s").str, "quote\" slash\\ ctl\n");
}

TEST(JsonWriterTest, NestedContainersAndScalars) {
  JsonWriter w;
  w.beginObject();
  w.kv("int", std::int64_t{-42});
  w.kv("uint", std::uint64_t{7});
  w.kv("float", 2.5);
  w.kv("flag", true);
  w.key("none").null();
  w.key("list").beginArray().value(1).value(2).endArray();
  w.key("nested").beginObject().kv("x", 1).endObject();
  w.endObject();
  EXPECT_EQ(w.depth(), 0u);

  const JsonValue doc = parseJson(w.str());
  EXPECT_EQ(doc.at("int").number, -42.0);
  EXPECT_EQ(doc.at("uint").number, 7.0);
  EXPECT_EQ(doc.at("float").number, 2.5);
  EXPECT_TRUE(doc.at("flag").boolean);
  EXPECT_EQ(doc.at("none").type, JsonValue::Type::kNull);
  ASSERT_EQ(doc.at("list").array.size(), 2u);
  EXPECT_EQ(doc.at("nested").at("x").number, 1.0);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.beginObject();
  w.kv("nan", std::nan(""));
  w.kv("inf", std::numeric_limits<double>::infinity());
  w.endObject();
  const JsonValue doc = parseJson(w.str());
  EXPECT_EQ(doc.at("nan").type, JsonValue::Type::kNull);
  EXPECT_EQ(doc.at("inf").type, JsonValue::Type::kNull);
}

TEST(JsonWriterTest, AppendsToACallersStringAndRefusesMisuse) {
  std::string out = "kept ";
  JsonWriter w(out);
  w.beginArray().value(1).value("two").null().endArray();
  EXPECT_EQ(out, R"(kept [1,"two",null])");
  EXPECT_EQ(&w.str(), &out);

  JsonWriter keyless;
  keyless.beginObject();
  EXPECT_THROW(keyless.value(1), InvariantError);
  JsonWriter twoKeys;
  twoKeys.beginObject().key("a");
  EXPECT_THROW(twoKeys.key("b"), InvariantError);
  EXPECT_THROW(twoKeys.endObject(), InvariantError);  // dangling key
  JsonWriter outside;
  EXPECT_THROW(outside.key("a"), InvariantError);
  EXPECT_THROW(outside.endObject(), InvariantError);
  JsonWriter crossed;
  crossed.beginArray();
  EXPECT_THROW(crossed.endObject(), InvariantError);

  JsonWriter deep;
  for (std::size_t i = 0; i < JsonWriter::kMaxDepth; ++i) deep.beginArray();
  EXPECT_THROW(deep.beginArray(), InvariantError);
  EXPECT_EQ(deep.depth(), JsonWriter::kMaxDepth);
}

TEST(ExportTest, RegistryRoundTripsThroughJson) {
  MetricsRegistry reg;
  reg.counter("sim.transmissions").increment(17);
  reg.counter("sim.collisions").increment(3);
  reg.gauge("cluster.backbone_size").set(55.0);
  Histogram& h = reg.histogram("latency", {1.0, 2.0, 4.0});
  h.observe(1.0);
  h.observe(3.0);
  h.observe(9.0);

  JsonWriter w;
  writeRegistryJson(w, reg);
  const JsonValue doc = parseJson(w.str());

  EXPECT_EQ(doc.at("counters").at("sim.transmissions").number, 17.0);
  EXPECT_EQ(doc.at("counters").at("sim.collisions").number, 3.0);
  EXPECT_EQ(doc.at("gauges").at("cluster.backbone_size").number, 55.0);

  const JsonValue& hist = doc.at("histograms").at("latency");
  ASSERT_EQ(hist.at("bounds").array.size(), 3u);
  EXPECT_EQ(hist.at("bounds").array[2].number, 4.0);
  // counts has one extra overflow bucket and matches the observations:
  // 1.0 → bucket 0, 3.0 → bucket 2 (≤4), 9.0 → overflow.
  ASSERT_EQ(hist.at("counts").array.size(), 4u);
  EXPECT_EQ(hist.at("counts").array[0].number, 1.0);
  EXPECT_EQ(hist.at("counts").array[1].number, 0.0);
  EXPECT_EQ(hist.at("counts").array[2].number, 1.0);
  EXPECT_EQ(hist.at("counts").array[3].number, 1.0);
  EXPECT_EQ(hist.at("count").number, 3.0);
  EXPECT_EQ(hist.at("sum").number, 13.0);
  EXPECT_EQ(hist.at("min").number, 1.0);
  EXPECT_EQ(hist.at("max").number, 9.0);
}

// Percentile export edge cases: empty registry/histogram, a single
// occupied bucket (clamping to the observed extremes), merged
// histograms, and ranks landing in the overflow bucket.
TEST(ExportTest, PercentilesInHistogramJson) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 90; ++i) h.observe(1.0);
  for (int i = 0; i < 9; ++i) h.observe(4.0);
  h.observe(8.0);

  JsonWriter w;
  writeRegistryJson(w, reg);
  const JsonValue doc = parseJson(w.str());
  const JsonValue& hist = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(hist.at("p50").number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("p95").number, h.percentile(0.95));
  EXPECT_DOUBLE_EQ(hist.at("p99").number, h.percentile(0.99));
  EXPECT_GE(hist.at("p95").number, 2.0);
  EXPECT_LE(hist.at("p99").number, 8.0);
}

TEST(ExportTest, EmptyHistogramExportsZeroPercentiles) {
  MetricsRegistry reg;
  reg.histogram("empty", {1.0, 2.0});
  JsonWriter w;
  writeRegistryJson(w, reg);
  const JsonValue doc = parseJson(w.str());
  const JsonValue& hist = doc.at("histograms").at("empty");
  EXPECT_DOUBLE_EQ(hist.at("p50").number, 0.0);
  EXPECT_DOUBLE_EQ(hist.at("p95").number, 0.0);
  EXPECT_DOUBLE_EQ(hist.at("p99").number, 0.0);
}

TEST(ExportTest, SingleBucketPercentilesClampToObservedRange) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("one", {100.0, 200.0});
  h.observe(42.0);
  h.observe(43.0);
  h.observe(44.0);
  JsonWriter w;
  writeRegistryJson(w, reg);
  const JsonValue doc = parseJson(w.str());
  const JsonValue& hist = doc.at("histograms").at("one");
  // Everything sits in bucket 0; interpolation inside [0, 100] must be
  // clamped to [min, max] = [42, 44] rather than inventing values.
  EXPECT_GE(hist.at("p50").number, 42.0);
  EXPECT_LE(hist.at("p99").number, 44.0);
}

TEST(ExportTest, MergedHistogramPercentilesCoverCombinedData) {
  MetricsRegistry a;
  MetricsRegistry b;
  Histogram& ha = a.histogram("m", Histogram::hdrBounds(1.0, 1024.0, 4));
  Histogram& hb = b.histogram("m", Histogram::hdrBounds(1.0, 1024.0, 4));
  for (int i = 0; i < 50; ++i) ha.observe(2.0);
  for (int i = 0; i < 50; ++i) hb.observe(512.0);
  a.mergeFrom(b);

  JsonWriter w;
  writeRegistryJson(w, a);
  const JsonValue doc = parseJson(w.str());
  const JsonValue& hist = doc.at("histograms").at("m");
  EXPECT_EQ(hist.at("count").number, 100.0);
  // Half the mass is at 2, half at 512: p50 stays low, p95/p99 land in
  // the upper mode.
  EXPECT_LE(hist.at("p50").number, 4.0);
  EXPECT_GE(hist.at("p95").number, 256.0);
  EXPECT_GE(hist.at("p99").number, hist.at("p95").number);
}

TEST(ExportTest, OverflowBucketPercentileReportsMaxValue) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("ovf", {1.0});
  h.observe(0.5);
  for (int i = 0; i < 99; ++i) h.observe(1000.0);  // all in overflow
  JsonWriter w;
  writeRegistryJson(w, reg);
  const JsonValue doc = parseJson(w.str());
  const JsonValue& hist = doc.at("histograms").at("ovf");
  EXPECT_DOUBLE_EQ(hist.at("p95").number, 1000.0);
  EXPECT_DOUBLE_EQ(hist.at("p99").number, 1000.0);
}

TEST(ExportTest, TimingTreeRoundTripsThroughJson) {
  const bool was = enabled();
  setEnabled(true);
  globalTiming().reset();
  {
    DSN_TIMED_PHASE("build");
    DSN_TIMED_PHASE("slots");
  }
  JsonWriter w;
  writeTimingJson(w, globalTiming());
  const std::string text = w.str();
  globalTiming().reset();
  setEnabled(was);

  const JsonValue doc = parseJson(text);
  ASSERT_EQ(doc.array.size(), 1u);
  const JsonValue& build = doc.array[0];
  EXPECT_EQ(build.at("phase").str, "build");
  EXPECT_EQ(build.at("calls").number, 1.0);
  EXPECT_GE(build.at("ms").number, 0.0);
  ASSERT_EQ(build.at("children").array.size(), 1u);
  EXPECT_EQ(build.at("children").array[0].at("phase").str, "slots");
}

TEST(ExportTest, MetricsDocumentHasSchemaHeader) {
  MetricsRegistry reg;
  reg.counter("events").increment();
  const JsonValue doc = parseJson(metricsDocumentJson(reg, globalTiming()));
  EXPECT_EQ(doc.at("schema").str, "dsnet-metrics-v1");
  EXPECT_EQ(doc.at("metrics").at("counters").at("events").number, 1.0);
  EXPECT_EQ(doc.at("timing").type, JsonValue::Type::kArray);
}

// Every byte of a metrics document: sorted counter, gauge and histogram
// names (one key needs escaping), a non-finite gauge rendered as null,
// the full histogram summary and a nested timing tree with fixed times.
TEST(ExportTest, MetricsDocumentBytesArePinned) {
  MetricsRegistry reg;
  reg.counter("sim.transmissions").increment(17);
  reg.counter("cluster.moves").increment(3);
  reg.counter("odd \"name\"\t").increment();
  reg.gauge("cluster.height").set(4.5);
  reg.gauge("radio.ratio").set(std::numeric_limits<double>::infinity());
  Histogram& h = reg.histogram("latency", {1.0, 2.0, 4.0});
  for (const double x : {0.5, 1.5, 3.0, 9.0}) h.observe(x);

  TimingRegistry timing;
  TimingRegistry::Node* build = timing.enter("build");
  TimingRegistry::Node* slots = timing.enter("slots");
  timing.exit(slots, 1'500'000);
  timing.exit(build, 3'250'000);
  for (int i = 0; i < 2; ++i) timing.exit(timing.enter("broadcast"), 62'500);

  EXPECT_EQ(
      metricsDocumentJson(reg, timing),
      R"({"schema":"dsnet-metrics-v1","metrics":{"counters":{)"
      R"("cluster.moves":3,"odd \"name\"\t":1,"sim.transmissions":17},)"
      R"("gauges":{"cluster.height":4.5,"radio.ratio":null},)"
      R"("histograms":{"latency":{"bounds":[1,2,4],"counts":[1,1,1,1],)"
      R"("count":4,"sum":14,"mean":3.5,"min":0.5,"max":9,"p50":2,"p95":9,)"
      R"("p99":9}}},"timing":[{"phase":"build","ms":3.25,"calls":1,)"
      R"("children":[{"phase":"slots","ms":1.5,"calls":1,"children":[]}]},)"
      R"({"phase":"broadcast","ms":0.125,"calls":2,"children":[]}]})");
}

TEST(ExportTest, EmptyRegistryStillEmitsAllSections) {
  MetricsRegistry reg;
  JsonWriter w;
  writeRegistryJson(w, reg);
  const JsonValue doc = parseJson(w.str());
  EXPECT_TRUE(doc.at("counters").object.empty());
  EXPECT_TRUE(doc.at("gauges").object.empty());
  EXPECT_TRUE(doc.at("histograms").object.empty());
}

}  // namespace
}  // namespace dsn::obs
