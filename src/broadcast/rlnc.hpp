// Random linear network coding broadcast over GF(2^8) (Haas & Nikolov,
// "Towards Optimal Broadcast in Wireless Networks").
//
// The source expands the 64-bit payload into a generation of
// `kRlncGeneration` source symbols (s_0 = payload, s_i = splitmix(payload
// ^ i), so a decode is self-verifying) and injects `sourceBudget` random
// coded packets. Every relay that holds at least one innovative packet
// re-codes: it transmits `relayBudget` fresh random combinations of its
// own basis rows, spread over contention backoffs. A node is served once
// its decoder reaches full rank and the recovered generation passes the
// s_i = splitmix(s_0 ^ i) consistency check.
//
// Wire format: the 4 coding coefficients (over the source basis) ride in
// Message::sequence, one byte per source symbol; the coded 64-bit symbol
// rides in Message::payload. All coefficient and backoff draws come from
// per-node RNGs seeded off the shared scheme seed, so a run is a pure
// function of (graph, source, seed) — the seed-determinism oracle the
// fuzz battery checks.
#pragma once

#include "broadcast/run_result.hpp"
#include "graph/graph.hpp"

namespace dsn {

/// Generation size: 4 coefficient bytes must fit Message::sequence.
inline constexpr int kRlncGeneration = 4;

struct RlncConfig {
  /// Backoff window between consecutive coded transmissions.
  int contentionWindow = 6;
  /// Coded packets the source injects.
  int sourceBudget = 12;
  /// Recoded packets each relay transmits once it holds innovative rows.
  int relayBudget = 6;
  std::uint64_t seed = 0x271C0DE5ull;
};

/// Derives source symbol i from the payload (splitmix64 finalizer); the
/// redundancy makes every decode internally verifiable.
constexpr std::uint64_t rlncSourceSymbol(std::uint64_t payload, int i) {
  if (i == 0) return payload;
  std::uint64_t z = payload ^ static_cast<std::uint64_t>(i);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

BroadcastRun runRlncBroadcast(const Graph& g, NodeId source,
                              std::uint64_t payload,
                              const RlncConfig& config = {},
                              const ProtocolOptions& options = {});

}  // namespace dsn
