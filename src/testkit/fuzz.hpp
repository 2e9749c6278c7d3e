// Fuzz campaign driver: N seeded episodes, deterministically parallel.
//
// Episodes shard across exec::forEachIndex, each writing into its own
// result slot; the report (failure order, digest, JSON export) is
// assembled from the slots in index order, so the campaign outcome is
// bit-identical at any --jobs count. The campaign digest chains every
// episode digest in order — comparing two digests compares two whole
// campaigns in one word, which is how --verify-jobs works.
#pragma once

#include <iosfwd>

#include "testkit/shrink.hpp"

namespace dsn::testkit {

/// Campaign configuration.
struct FuzzConfig {
  std::size_t episodes = 100;
  std::uint64_t seed = 1;
  /// Worker threads (0 = hardware concurrency, 1 = serial).
  int jobs = 1;
  GeneratorKnobs knobs;
  EpisodeOptions episode;
  /// Minimize the first failing episode (serial, after the sweep).
  bool shrinkFailures = true;
};

/// One retained failure.
struct FuzzFailure {
  std::size_t episodeIndex = 0;
  std::uint64_t episodeSeed = 0;
  EpisodeResult result;
  bool shrunk = false;
  ShrinkResult shrink;
};

/// Campaign outcome.
struct FuzzReport {
  std::size_t episodes = 0;
  std::size_t failed = 0;
  /// FNV chain over per-episode digests, in episode order.
  std::uint64_t digest = kFnvOffset;
  std::size_t opsExecuted = 0;
  std::size_t opsSkipped = 0;
  std::size_t simRuns = 0;
  /// The first five failures, in episode order (the rest are counted).
  std::vector<FuzzFailure> failures;

  bool clean() const { return failed == 0; }
};

/// Runs the campaign. Deterministic for fixed config (jobs excluded).
FuzzReport runFuzz(const FuzzConfig& config);

/// Replays a single episode by its root seed (the value printed in
/// failure reports and .wsn headers) — the "reproduce from a seed"
/// entry point.
EpisodeResult replayEpisode(std::uint64_t episodeSeed,
                            const GeneratorKnobs& knobs,
                            const EpisodeOptions& options = {});

/// Writes the dsnet-fuzz-v1 JSON document. Contains no wall-clock or
/// host fields, so documents from runs that differ only in --jobs are
/// byte-identical except for the declared "jobs" value.
void writeFuzzJson(std::ostream& os, const FuzzConfig& config,
                   const FuzzReport& report);

}  // namespace dsn::testkit
