// Seed-stream derivation for the fuzz harness.
//
// Every fuzz episode owns a family of independent PRNG streams, all
// derived from (baseSeed, episodeIndex) with the same chained-SplitMix64
// finalization rule as ExperimentConfig::trialSeed — one finalizer step
// per coordinate, with a distinct domain tag per stream family so the
// fuzz streams can never collide with the experiment engine's trial
// streams or with each other (regression class: the PR 2 trial-0
// degeneracy, where a weakly mixed rule made distinct coordinates share
// streams). tests/core/seed_streams_test.cpp checks the families are
// pairwise collision-free over 10^5 draws.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace dsn::testkit {

/// Domain tags separating the fuzz stream families from each other and
/// from ExperimentConfig::trialSeed (whose chain starts at
/// mix64(baseSeed) with no tag).
inline constexpr std::uint64_t kEpisodeDomain = 0xF0225EED00000001ull;
inline constexpr std::uint64_t kDeployDomain = 0xF0225EED00000002ull;
inline constexpr std::uint64_t kOpsDomain = 0xF0225EED00000003ull;
inline constexpr std::uint64_t kFailureDomain = 0xF0225EED00000004ull;
inline constexpr std::uint64_t kArenaDomain = 0xF0225EED00000005ull;

/// Root seed of episode `index` under fuzz base seed `base`.
inline std::uint64_t episodeSeed(std::uint64_t base, std::uint64_t index) {
  const std::uint64_t s1 = mix64(mix64(base) ^ kEpisodeDomain);
  return mix64(s1 ^ index);
}

/// Deployment stream of one episode (drives deployIncrementalAttach, so
/// the same episode seed at a smaller node count yields a prefix of the
/// same deployment — the property node-count bisection shrinking needs).
inline std::uint64_t deploySeed(std::uint64_t episode) {
  return mix64(episode ^ kDeployDomain);
}

/// Op-program stream of one episode.
inline std::uint64_t opsSeed(std::uint64_t episode) {
  return mix64(episode ^ kOpsDomain);
}

/// Failure-model stream of communication op `opIndex` of one episode.
inline std::uint64_t failureSeed(std::uint64_t episode,
                                 std::uint64_t opIndex) {
  return mix64(mix64(episode ^ kFailureDomain) ^ opIndex);
}

/// Rival-scheme tuning stream (ArenaTuning::seed — relay coins, backoff
/// and RLNC coefficient draws) of communication op `opIndex`.
inline std::uint64_t arenaSeed(std::uint64_t episode,
                               std::uint64_t opIndex) {
  return mix64(mix64(episode ^ kArenaDomain) ^ opIndex);
}

}  // namespace dsn::testkit
