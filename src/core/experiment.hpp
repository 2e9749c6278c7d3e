// Experiment harness: multi-trial averaging over seeded deployments.
//
// Every figure/table in the paper is an average over random WSNs of a
// given size; this harness fixes the seeding discipline (base seed +
// trial index) so each bench row is exactly reproducible.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/sensor_network.hpp"
#include "util/stats.hpp"

namespace dsn {

/// One experiment's sweep settings (paper Section 6 defaults).
struct ExperimentConfig {
  std::vector<std::size_t> nodeCounts{100, 200, 300, 400, 500};
  int fieldUnits = 10;          ///< 10x10 units
  double unitMeters = 100.0;
  double range = 50.0;
  int trials = 5;
  std::uint64_t baseSeed = 0xD5AE;
  ClusterNetConfig cluster;

  NetworkConfig networkFor(std::size_t n, int trial) const {
    NetworkConfig nc;
    nc.field = Field::squareUnits(fieldUnits, unitMeters);
    nc.range = range;
    nc.nodeCount = n;
    nc.seed = trialSeed(n, trial);
    nc.cluster = cluster;
    return nc;
  }

  /// The SplitMix64 finalizer (util/rng.hpp), the building block of the
  /// stream-derivation rule below.
  static std::uint64_t mix64(std::uint64_t z) { return dsn::mix64(z); }

  /// Stream-derivation rule: one finalizer step per coordinate,
  ///
  ///   s0 = mix64(baseSeed)
  ///   s1 = mix64(s0 ^ n)
  ///   seed(n, trial) = mix64(s1 ^ trial)
  ///
  /// so every (n, trial) pair names an independent, fully-mixed stream
  /// that is stable across runs, platforms and thread counts. The
  /// previous rule (`baseSeed ^ (n << 20) ^ trial * GAMMA`) ignored the
  /// multiplier at trial 0 and left structured inputs weakly mixed;
  /// chained finalization fixes both (collision regression test in
  /// tests/core/experiment_test.cpp covers the paper's sweep grid).
  std::uint64_t trialSeed(std::size_t n, int trial) const {
    const std::uint64_t s1 =
        mix64(mix64(baseSeed) ^ static_cast<std::uint64_t>(n));
    return mix64(s1 ^ static_cast<std::uint64_t>(trial));
  }
};

/// Aggregated metric values keyed by name; each key holds the per-trial
/// samples so benches can report mean and spread.
class MetricTable {
 public:
  void add(const std::string& name, double value);
  /// Appends every sample of `other` in its (name, insertion) order.
  /// Merging per-trial tables in trial order reproduces exactly the
  /// sample sequences — and therefore the means, bit for bit — that a
  /// serial run recording into one shared table would produce.
  void merge(const MetricTable& other);
  const Samples& samples(const std::string& name) const;
  double mean(const std::string& name) const;
  double max(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::vector<std::pair<std::string, Samples>> metrics_;
};

/// Builds a network per trial and feeds it to `probe`, which records
/// whatever metrics it wants into the table. Serial reference
/// implementation; exec/parallel_sweep.hpp provides the multi-threaded
/// drivers that are bit-identical to this one.
MetricTable runTrials(
    const ExperimentConfig& cfg, std::size_t nodeCount,
    const std::function<void(SensorNetwork&, Rng&, MetricTable&)>& probe);

}  // namespace dsn
