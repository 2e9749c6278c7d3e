// The serve job protocol: `dsnet-job-v1`.
//
// One job = one deployment + one scenario, expressed as a single JSON
// line:
//
//   {"schema":"dsnet-job-v1","id":7,"nodes":200,"seed":2007,
//    "field_units":10,"range":50.0,"deploy":"attach","channels":1,
//    "drop":0.0,"protocol":"icff","trace_cap":0,
//    "scenario":"broadcast random icff\ngather"}
//
// Required: `schema`, `nodes`, `scenario` (scenario grammar as in
// core/scenario.hpp, newlines escaped). Everything else defaults to the
// wsn_sim CLI defaults. `id` defaults to the line index; explicit ids
// must be strictly increasing across a stream so "ordered by id" and
// "ordered by arrival" coincide and the emitter never has to buffer
// past a gap it cannot close.
//
// Semantics match a one-shot `wsn_sim` invocation with the same knobs:
// the deployment is a pure function of (nodes, seed, field_units,
// range, deploy), the scenario RNG is seeded with `seed ^ 0xCAFE`, so a
// job's dsnet-run-v1 record is a pure function of the job line —
// regardless of batch position, worker count, or cache state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/runner.hpp"
#include "core/scenario.hpp"
#include "core/sensor_network.hpp"

namespace dsn::serve {

struct ServeJob {
  /// Position in the stream (== emit order).
  std::size_t index = 0;
  /// Client-visible id echoed in the run record; defaults to `index`.
  std::uint64_t id = 0;
  std::size_t nodes = 0;
  std::uint64_t seed = 1;
  int fieldUnits = 10;
  double range = 50.0;
  DeploymentKind deploy = DeploymentKind::kIncrementalAttach;
  Channel channels = 1;
  double drop = 0.0;
  std::optional<BroadcastScheme> protocol;
  std::size_t traceCapacity = 0;
  bool autoRepair = false;
  std::string scenarioText;
  /// Parsed form of `scenarioText` (filled by parseJobLine).
  std::vector<ScenarioEvent> events;
  /// True when any event mutates the SensorNetwork — the job then runs
  /// on a private build instead of the shared warm snapshot.
  bool mutates = false;
  /// deploymentFingerprint of networkConfig() (filled by parseJobLine).
  std::uint64_t fingerprint = 0;
  /// Non-empty when the line failed to parse; the engine emits an error
  /// record at this job's position instead of running anything.
  std::string parseError;

  bool failed() const { return !parseError.empty(); }
};

/// NetworkConfig this job deploys (the warm-cache key).
NetworkConfig jobNetworkConfig(const ServeJob& job);

/// ScenarioOptions for running this job (same derivation as wsn_sim:
/// scenario RNG seed = job seed ^ 0xCAFE, protocol knobs copied).
ScenarioOptions jobScenarioOptions(const ServeJob& job);

/// Parses one JSONL line. Never throws: malformed lines come back with
/// `parseError` set (and `index`/`id` filled) so the engine can emit an
/// in-order error record and keep serving. `previousId` is the last
/// explicit or defaulted id handed out, used to enforce strictly
/// increasing ids (pass nullptr for a standalone parse).
ServeJob parseJobLine(const std::string& line, std::size_t index,
                      const std::uint64_t* previousId = nullptr);

/// Renders the job as one dsnet-job-v1 line (no trailing newline).
/// parseJobLine(formatJobLine(j), j.index) reproduces `j`.
std::string formatJobLine(const ServeJob& job);

/// Deterministic mixed demo workload: `count` jobs cycling through
/// `deployments` distinct topologies. The common case is a light query
/// (slotted broadcast / validation probe at `nodes`); every
/// `heavyEvery`-th job (0 = never) is a big request from a rotation of
/// reliable-broadcast-under-loss, gather waves, and the rival schemes
/// at a quarter of the node count; every `mutatingEvery`-th job (0 =
/// never) runs a churn scenario that mutates its network. Used by the
/// perf_serve bench, the CI serve-smoke stream, and `wsn_serve
/// --emit-demo`.
std::vector<ServeJob> demoJobs(std::size_t count, std::uint64_t seed,
                               std::size_t nodes = 200,
                               std::size_t deployments = 8,
                               std::size_t mutatingEvery = 16,
                               std::size_t heavyEvery = 4);

}  // namespace dsn::serve
