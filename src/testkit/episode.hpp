// One fuzz episode: deploy a network, execute an op-program, check every
// oracle after every op.
//
// Oracles applied (see DESIGN.md §11):
//   - structural: after each structure-mutating op on a non-stale net,
//     both the shipping validator and the independent spec checker
//     (testkit/spec_check.hpp) must agree the structure is clean; a
//     one-sided disagreement is itself a failure ("oracle-divergence").
//   - differential: a fault-free broadcast on a clean structure must
//     reach every node under all three schemes with identical delivered
//     sets. (Collision *sites* are legitimate even fault-free: the slot
//     conditions promise each listener some uniquely-slotted provider,
//     not a silent ether.)
//   - reference: the CFF plan run through the real simulator must agree
//     delivery-for-delivery with the naive first-principles simulator.
//   - reliable: reliable broadcast must deliver a superset of its own
//     plain wave (identical base options and failure seed).
//   - multicast: fault-free full-flood multicast reaches every member;
//     pruned-relay delivers a subset of full-flood.
//   - trace: every recorded receive/collision event is justified by the
//     radio axioms (all schemes, all fault regimes).
//
// The executor also records the concrete ScenarioEvents it performed
// (picks resolved to real node ids) so a failing episode can be exported
// as a replayable .wsn file, and folds every run's outcome into an FNV
// digest so cross---jobs determinism is a one-word comparison.
#pragma once

#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "testkit/program.hpp"

namespace dsn::testkit {

/// FNV-1a offset basis: the empty digest of an episode and a campaign.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Folds the eight bytes of `x`, low byte first, into FNV-1a `digest`.
inline void fnvFold(std::uint64_t& digest, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (x >> (8 * i)) & 0xffu;
    digest *= 0x100000001b3ull;
  }
}

/// Execution knobs of one episode.
struct EpisodeOptions {
  Channel channels = 1;
  /// Per-run trace capacity; traces that overflow are skipped by the
  /// consistency oracle rather than judged on a partial view.
  std::size_t traceCapacity = 8192;
  /// Corrupts every CFF plan leg with injectCffSlotCollision before
  /// running it — the deliberate-bug acceptance mode. A vulnerable
  /// episode then fails with class "cff-plan-coverage".
  bool injectCffSlotBug = false;
};

/// Outcome of one episode.
struct EpisodeResult {
  bool ok = true;
  /// Stable kebab-case class of the first failure ("" when ok).
  std::string failureClass;
  std::string message;
  /// Index of the op whose checks failed (-1 = deploy-time checks).
  int failingOp = -1;
  /// FNV-1a digest over every deterministic outcome field, in op order.
  std::uint64_t digest = kFnvOffset;
  /// Concrete events executed (for .wsn export / replay).
  std::vector<ScenarioEvent> executed;
  std::size_t opsExecuted = 0;
  std::size_t opsSkipped = 0;
  std::size_t simRuns = 0;
};

/// Executes `program` from scratch. Deterministic: same program and
/// options => identical result (including the digest), on any thread.
EpisodeResult runEpisode(const FuzzProgram& program,
                         const EpisodeOptions& options = {});

}  // namespace dsn::testkit
