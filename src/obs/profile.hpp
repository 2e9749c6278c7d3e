// Per-round profiler: feeds round wall-time, active-set size and
// resolve work (Σ transmitter degrees) into HDR-style histograms
// (sim.round_ns / sim.round_active / sim.round_resolve_work) exposed
// through the standard metrics export with p50/p95/p99.
//
// Profiling is opt-in (setRoundProfiling) and separate from
// obs::enabled() because round wall-times are nondeterministic: the
// tier-1 parallel-determinism smoke diffs full run documents across
// --jobs counts, so wall-clock histograms must never enter the default
// metrics snapshot. The deterministic distributions (active-set size,
// resolve work) ride the same flag to keep the exported name set stable.
//
// Zero steady-state allocations: the profiler owns three preallocated
// Histograms; beginRound/endRound are a steady-clock read plus three
// Histogram::observe calls (atomic adds). flushTo() folds the local
// histograms into a registry via mergeFrom at end of run.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace dsn::obs {

/// Global round-profiling switch (default off). Like obs::setEnabled,
/// flip before a run you want profiled.
bool roundProfilingEnabled();
void setRoundProfiling(bool on);

/// Collects per-round distributions for one simulator run. Construct
/// once per run (allocates the histogram buckets), then
/// beginRound/endRound per executed round, then flushTo(globalMetrics())
/// with the run's other telemetry. An instance constructed while
/// profiling is off stays inert and free.
class RoundProfiler {
 public:
  RoundProfiler();

  bool active() const { return active_; }

  void beginRound() {
    if (!active_) return;
    start_ = std::chrono::steady_clock::now();
  }

  /// `activeSize` = nodes the wake calendar released this round,
  /// `resolveWork` = Σ CSR degrees over this round's transmitters.
  void endRound(std::uint64_t activeSize, std::uint64_t resolveWork) {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    roundNs_->observe(static_cast<double>(ns));
    roundActive_->observe(static_cast<double>(activeSize));
    resolveWork_->observe(static_cast<double>(resolveWork));
  }

  /// Merges the collected distributions into `registry` under
  /// sim.round_ns / sim.round_active / sim.round_resolve_work. No-op
  /// when inactive or no rounds were recorded.
  void flushTo(MetricsRegistry& registry) const;

 private:
  bool active_ = false;
  std::chrono::steady_clock::time_point start_{};
  // Owned via the registry idiom so bounds live in one place.
  MetricsRegistry local_;
  Histogram* roundNs_ = nullptr;
  Histogram* roundActive_ = nullptr;
  Histogram* resolveWork_ = nullptr;
};

}  // namespace dsn::obs
