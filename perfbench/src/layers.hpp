// Per-layer accounting shared by the workloads: the deployment step the
// benchmark times on its own, phase-tree totals, radio counters, and
// the per-layer self-time table of a traced run.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/sensor_network.hpp"
#include "obs/metrics.hpp"
#include "tracer.hpp"

namespace perfbench {

/// The deployment SensorNetwork(config) would make (the same switch as
/// its constructor), so a traced build can time deployment apart from
/// self-construction: SensorNetwork(deployPoints(c), c.range, c.cluster)
/// builds the same network as SensorNetwork(c).
std::vector<dsn::Point2D> deployPoints(const dsn::NetworkConfig& config);

/// Totals over phase trees attached to spans.
struct PhaseTotals {
  std::int64_t simNs = 0;  ///< outermost sim.run
  std::uint64_t simCalls = 0;
  std::int64_t broadcastNs = 0;  ///< outermost broadcast.*
  std::uint64_t broadcastCalls = 0;
  std::int64_t broadcastSimNs = 0;  ///< sim.run inside a broadcast.*
  std::int64_t clusterSchemeNs = 0;  ///< broadcast.CFF / ICFF / DFO
  std::uint64_t clusterSchemeCalls = 0;
  std::int64_t rivalNs = 0;  ///< the six rival schemes
  std::uint64_t rivalCalls = 0;
  std::int64_t reliableNs = 0;
  std::uint64_t reliableCalls = 0;
  std::int64_t cnetBuildNs = 0;
  std::uint64_t cnetBuildCalls = 0;
  std::int64_t moveInNs = 0;
  std::uint64_t moveInCalls = 0;
  std::int64_t mutationNs = 0;  ///< outermost cnet.withdraw / cnet.move_out
  std::int64_t repairNs = 0;  ///< cnet.recovery
  std::uint64_t repairCalls = 0;

  void add(const std::vector<Phase>& phases);
};

/// Exact simulator counters folded from job-local registries.
struct RadioCounts {
  std::uint64_t rounds = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t budgetExhausted = 0;
  std::uint64_t csrRebuilds = 0;

  void add(const dsn::obs::MetricsRegistry& registry);
};

/// Adds the exact radio counts and their ratio as per-layer metrics.
void addRadioCounts(Result& result, const RadioCounts& counts);

/// Adds `<layer>.self_ms` for every layer and `trace.wall_ms` (the root
/// span), and prints the per-layer table into the result's notes.
void addLayerTable(Result& result, const Tracer& tracer, int root);

inline double perCall(std::int64_t nanos, std::uint64_t calls, double unit) {
  return calls == 0 ? 0.0
                    : static_cast<double>(nanos) / unit /
                          static_cast<double>(calls);
}

}  // namespace perfbench
