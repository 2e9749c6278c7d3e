#include "testkit/fuzz.hpp"

#include <ostream>

#include "exec/parallel_sweep.hpp"
#include "obs/json.hpp"
#include "testkit/seeds.hpp"

namespace dsn::testkit {

namespace {

/// Failing episodes retained in full (beyond counting).
constexpr std::size_t kMaxFailuresKept = 5;

}  // namespace

EpisodeResult replayEpisode(std::uint64_t episodeSeed,
                            const GeneratorKnobs& knobs,
                            const EpisodeOptions& options) {
  return runEpisode(generateProgram(knobs, episodeSeed), options);
}

FuzzReport runFuzz(const FuzzConfig& config) {
  struct Slot {
    std::uint64_t seed = 0;
    EpisodeResult result;
  };
  std::vector<Slot> slots(config.episodes);

  exec::forEachIndex(config.episodes, config.jobs, [&](std::size_t i) {
    Slot& slot = slots[i];
    slot.seed = episodeSeed(config.seed, i);
    slot.result = replayEpisode(slot.seed, config.knobs, config.episode);
  });

  FuzzReport report;
  report.episodes = config.episodes;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    fnvFold(report.digest, slot.result.digest);
    report.opsExecuted += slot.result.opsExecuted;
    report.opsSkipped += slot.result.opsSkipped;
    report.simRuns += slot.result.simRuns;
    if (slot.result.ok) continue;
    ++report.failed;
    if (report.failures.size() < kMaxFailuresKept) {
      FuzzFailure f;
      f.episodeIndex = i;
      f.episodeSeed = slot.seed;
      f.result = slot.result;
      report.failures.push_back(std::move(f));
    }
  }

  if (config.shrinkFailures && !report.failures.empty()) {
    FuzzFailure& first = report.failures.front();
    first.shrink = shrinkProgram(
        generateProgram(config.knobs, first.episodeSeed), config.episode);
    first.shrunk = true;
  }
  return report;
}

void writeFuzzJson(std::ostream& os, const FuzzConfig& config,
                   const FuzzReport& report) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", "dsnet-fuzz-v1");
  w.key("config");
  w.beginObject();
  w.kv("episodes", static_cast<std::uint64_t>(config.episodes));
  w.kv("seed", config.seed);
  w.kv("jobs", config.jobs);
  w.kv("min_nodes", static_cast<std::uint64_t>(config.knobs.minNodes));
  w.kv("max_nodes", static_cast<std::uint64_t>(config.knobs.maxNodes));
  w.kv("field_units", config.knobs.fieldUnits);
  w.kv("range", config.knobs.range);
  w.kv("min_ops", static_cast<std::uint64_t>(config.knobs.minOps));
  w.kv("max_ops", static_cast<std::uint64_t>(config.knobs.maxOps));
  w.kv("channels", static_cast<std::uint64_t>(config.episode.channels));
  w.kv("inject_cff_bug", config.episode.injectCffSlotBug);
  w.endObject();
  w.key("result");
  w.beginObject();
  w.kv("episodes", static_cast<std::uint64_t>(report.episodes));
  w.kv("failed", static_cast<std::uint64_t>(report.failed));
  w.kv("digest", report.digest);
  w.kv("ops_executed", static_cast<std::uint64_t>(report.opsExecuted));
  w.kv("ops_skipped", static_cast<std::uint64_t>(report.opsSkipped));
  w.kv("sim_runs", static_cast<std::uint64_t>(report.simRuns));
  w.endObject();
  w.key("failures");
  w.beginArray();
  for (const FuzzFailure& f : report.failures) {
    w.beginObject();
    w.kv("episode", static_cast<std::uint64_t>(f.episodeIndex));
    w.kv("episode_seed", f.episodeSeed);
    w.kv("class", f.result.failureClass);
    w.kv("message", f.result.message);
    w.kv("failing_op", f.result.failingOp);
    if (f.shrunk) {
      w.key("shrunk");
      w.beginObject();
      w.kv("ops", static_cast<std::uint64_t>(f.shrink.program.ops.size()));
      w.kv("nodes",
           static_cast<std::uint64_t>(f.shrink.program.nodeCount));
      w.kv("episodes_run",
           static_cast<std::uint64_t>(f.shrink.episodesRun));
      w.kv("class", f.shrink.failure.failureClass);
      w.kv("scenario", f.shrink.scenarioText);
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << w.str() << '\n';
}

}  // namespace dsn::testkit
