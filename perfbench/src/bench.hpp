// Shared scaffolding of the dsnet benchmark driver: run options, the
// result a workload hands back (metrics, output checks, digest), and
// small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: same code paths, networks and streams scaled down.
  bool tiny = false;
  /// Fault injection for the smoke test: "corrupt-record" flips a byte
  /// of one multi-worker record, "bound" tightens the Lemma 1 / Theorem 1
  /// bounds below what any broadcast can meet. Either must fail a check.
  std::string inject;
  /// Traced run: where the spans are written as JSON lines (empty = not
  /// written).
  std::string spansOut;
  /// Serve workloads: write the generated job stream (dsnet-job-v1
  /// lines) and the one-worker records to these files.
  std::string emitStream;
  std::string emitRecords;
  /// Worker threads of multi-worker passes: nproc.
  int workers = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One output check, evaluated possibly many times.
struct Check {
  std::string name;
  std::uint64_t evaluated = 0;
  std::uint64_t failures = 0;
  std::string firstFailure;
};

class Result {
 public:
  /// Records one evaluation of the check `name`.
  void check(const std::string& name, bool ok, const std::string& detail = {});
  void metric(const std::string& name, double value, const std::string& unit);

  bool correct() const;
  const std::vector<Check>& checks() const { return checks_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Operations attempted and failed (serve: jobs, grid: broadcasts).
  /// Each is counted once, on the first pass that runs it; the passes
  /// that repeat it for timing are checked to repeat its outcome.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over the workload's deterministic outputs.
  std::uint64_t digest = 0;
  /// Human-readable lines printed before the metrics (sample counts,
  /// per-layer table).
  std::vector<std::string> notes;

 private:
  std::vector<Check> checks_;
  std::vector<Metric> metrics_;
};

/// 64-bit FNV-1a, incremental.
class Fnv {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  void addU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Samples strictly above `threshold`.
std::size_t countAbove(const dsn::Samples& samples, double threshold);

/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();

std::string fmt(double v, int precision = 4);

/// Host-speed reference. The shared hosts this runs on change speed by
/// up to 1.6x over minutes (other tenants), more than any change a run
/// should resolve. So every timed span of an untraced run is bracketed
/// by a fixed kernel — hash-map inserts and lookups, run once on each
/// of `threads` threads at the same time — and its time is rescaled to
/// the kernel's duration on the reference host: time x nominal /
/// mean(before, after). The kernel is the benchmark's own code, not
/// dsnet's, so a change to dsnet moves rescaled figures exactly as it
/// moves raw ones. (It allocates through the global allocator, about
/// 3 MB per thread, which peak_rss_mb includes; a change that replaces
/// operator new moves the reference too.)
class HostSpeed {
 public:
  /// Wall seconds of one kernel run on each of `threads` threads.
  double sample(int threads);
  /// Factor rescaling a time measured between samples `before` and
  /// `after` (taken at the same thread count) to the reference host.
  static double scale(int threads, double before, double after);

 private:
  /// Folds the kernel's results so the work cannot be optimised away.
  std::uint64_t checksum_ = 0;
};

/// The workloads: serve_warm / serve_churn, and grid_100k.
Result runServe(const Options& options);
Result runGrid(const Options& options);

}  // namespace perfbench
