#include "layers.hpp"

#include <cmath>
#include <string_view>

#include "graph/deploy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

bool under(const Phase& p, std::string_view prefix) {
  return p.ancestors.find(prefix) != std::string::npos;
}

bool isClusterScheme(std::string_view name) {
  return name == "broadcast.CFF" || name == "broadcast.ICFF" ||
         name == "broadcast.DFO";
}

}  // namespace

std::vector<dsn::Point2D> deployPoints(const dsn::NetworkConfig& c) {
  dsn::Rng rng(c.seed);
  const dsn::DeployConfig dc{c.field, c.range, c.nodeCount};
  switch (c.deployment) {
    case dsn::DeploymentKind::kIncrementalAttach:
      return dsn::deployIncrementalAttach(dc, rng);
    case dsn::DeploymentKind::kUniform:
      return dsn::deployUniform(dc, rng);
    case dsn::DeploymentKind::kGrid:
      return dsn::deployGrid(dc);
    case dsn::DeploymentKind::kLine:
      return dsn::deployLine(c.nodeCount, c.range);
    case dsn::DeploymentKind::kStar:
      return dsn::deployStar(c.nodeCount, c.range);
  }
  DSN_CHECK(false, "unknown deployment kind");
  return {};
}

void PhaseTotals::add(const std::vector<Phase>& phases) {
  for (const Phase& p : phases) {
    const std::string_view name = p.name;
    if (name == "sim.run") {
      if (!under(p, "sim.run")) {
        simNs += p.nanos;
        simCalls += p.calls;
      }
      if (under(p, "broadcast.")) broadcastSimNs += p.nanos;
    } else if (name.starts_with("broadcast.")) {
      if (!under(p, "broadcast.")) {
        broadcastNs += p.nanos;
        broadcastCalls += p.calls;
      }
      if (name == "broadcast.reliable") {
        reliableNs += p.nanos;
        reliableCalls += p.calls;
      } else if (isClusterScheme(name)) {
        clusterSchemeNs += p.nanos;
        clusterSchemeCalls += p.calls;
      } else {
        rivalNs += p.nanos;
        rivalCalls += p.calls;
      }
    } else if (name == "cnet.build") {
      cnetBuildNs += p.nanos;
      cnetBuildCalls += p.calls;
    } else if (name == "cnet.move_in") {
      moveInNs += p.nanos;
      moveInCalls += p.calls;
    } else if (name == "cnet.withdraw" || name == "cnet.move_out") {
      if (!under(p, "cnet.withdraw") && !under(p, "cnet.move_out"))
        mutationNs += p.nanos;
    } else if (name == "cnet.recovery") {
      repairNs += p.nanos;
      repairCalls += p.calls;
    }
  }
}

void RadioCounts::add(const dsn::obs::MetricsRegistry& registry) {
  registry.visitCounters([this](std::string_view name, std::uint64_t v) {
    if (name == "sim.rounds") rounds += v;
    else if (name == "sim.transmissions") transmissions += v;
    else if (name == "sim.deliveries") deliveries += v;
    else if (name == "sim.collisions") collisions += v;
    else if (name == "sim.budget_exhausted") budgetExhausted += v;
    else if (name == "graph.csr.rebuild") csrRebuilds += v;
  });
}

void addRadioCounts(Result& r, const RadioCounts& c) {
  r.metric("radio.rounds", static_cast<double>(c.rounds), "count");
  r.metric("radio.transmissions", static_cast<double>(c.transmissions),
           "count");
  r.metric("radio.deliveries", static_cast<double>(c.deliveries), "count");
  r.metric("radio.collisions", static_cast<double>(c.collisions), "count");
  r.metric("radio.delivery_ratio",
           c.transmissions == 0 ? 0.0
                                : static_cast<double>(c.deliveries) /
                                      static_cast<double>(c.transmissions),
           "ratio");
  r.metric("radio.budget_exhausted", static_cast<double>(c.budgetExhausted),
           "count");
  r.metric("graph.csr_rebuilds", static_cast<double>(c.csrRebuilds), "count");
}

void addLayerTable(Result& r, const Tracer& tracer, int root) {
  const auto self = tracer.layerSelfNs();
  const double wallMs =
      static_cast<double>(tracer.span(root).durationNs()) / 1e6;
  double sumMs = 0.0;
  r.notes.push_back("layer        self_ms      share");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const double ms = static_cast<double>(self[i]) / 1e6;
    sumMs += ms;
    const char* name = layerName(static_cast<Layer>(i));
    r.metric(std::string(name) + ".self_ms", ms, "ms");
    std::string line = name;
    line.resize(12, ' ');
    line += fmt(ms, 3) + "   " + fmt(wallMs > 0 ? 100.0 * ms / wallMs : 0.0, 1) +
            "%";
    r.notes.push_back(line);
  }
  r.notes.push_back("sum of self times " + fmt(sumMs, 3) +
                    " ms, traced wall " + fmt(wallMs, 3) + " ms");
  r.check("layer_self_times_add_up", std::abs(sumMs - wallMs) <= 1e-6 * wallMs,
          fmt(sumMs, 3) + " ms of self time for " + fmt(wallMs, 3) +
              " ms of wall time");
  r.metric("trace.wall_ms", wallMs, "ms");
}

}  // namespace perfbench
