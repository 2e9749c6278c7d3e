// The resident serve engine: a stream of scenario jobs in, a stream of
// dsnet-run-v1 records out.
//
// Jobs are scheduled on an exec::ThreadPool; each worker leases its
// JobScratch (resolve scratch, record buffer, telemetry registries)
// from a LeasePool, runs the scenario over either the shared warm
// deployment (read-only jobs) or a private build (mutating jobs), and
// renders its record into the worker's reused buffer. A sequencer
// flushes finished records to the sink in job order, incrementally —
// output bytes are a pure function of the job stream at any --jobs
// count, because every record is a pure function of its own job line
// (see job.hpp) and the ordering is by stream position.
//
// Steady-state serving performs zero marginal heap allocations in the
// engine itself at --jobs 1 with telemetry off: warm cache hit (map
// find + refcount), pooled scratch lease (freelist pop), the record
// rendered by obs::JsonWriter into retained capacity. The serve
// alloc-guard pins this down.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "exec/lease_pool.hpp"
#include "radio/channel.hpp"
#include "serve/job.hpp"
#include "serve/warm_cache.hpp"

namespace dsn::serve {

struct ServeOptions {
  /// Worker threads; 0/negative = hardware concurrency, 1 = inline on
  /// the calling thread (the zero-allocation path).
  int jobs = 1;
  /// Warm-cache capacity in deployments; 0 = cold (build per job).
  std::size_t cacheCapacity = 64;
  /// Append a "timing" section (wall-clock phase tree) to each record.
  /// Off by default so records are byte-comparable across runs.
  bool includeTiming = false;
};

struct ServeReport {
  std::size_t jobsRun = 0;
  /// Jobs whose line failed to parse (error record emitted in place).
  std::size_t parseErrors = 0;
  /// Jobs that threw while running (error record emitted in place).
  std::size_t jobsFailed = 0;
  /// Scenario runs that completed but failed an invariant validation.
  std::size_t invalidOutcomes = 0;
  /// Workers used: ServeOptions::jobs resolved, capped at the job count.
  std::size_t workers = 0;
  double wallMs = 0.0;
  WarmStateCache::Stats cache;

  bool ok() const { return parseErrors == 0 && jobsFailed == 0; }
};

/// Per-worker reusable state; leased per job from the engine's pool.
/// (Job-local telemetry registries are NOT pooled: a reused registry
/// would leak instrument *names* from earlier jobs into later records
/// — reset() keeps names registered — breaking the record-is-a-pure-
/// function-of-the-job-line guarantee. With telemetry enabled each job
/// pays a fresh registry; with telemetry off, none is created and the
/// loop stays allocation-free.)
struct JobScratch {
  ResolveScratch scratch;
  std::string record;
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options = {});

  /// Reads dsnet-job-v1 lines from `in` (blank lines and #-comments
  /// skipped), serves them, writes one record line per job to `out` in
  /// stream order. Returns the aggregate report.
  ServeReport serveStream(std::istream& in, std::ostream& out);

  /// Serves pre-parsed jobs; `emit` receives each record (no trailing
  /// newline) in job-index order, possibly from a worker thread but
  /// never concurrently. Jobs must be indexed 0..n-1 in vector order.
  ServeReport serveJobs(const std::vector<ServeJob>& jobs,
                        const std::function<void(std::string_view)>& emit);

  /// Pre-builds `workers` scratch slots and (optionally) the warm entry
  /// for `config` — lets the alloc-guard pay every one-time cost before
  /// arming its counter.
  void warmUp(const NetworkConfig* config = nullptr);

  WarmStateCache& cache() { return cache_; }
  const ServeOptions& options() const { return options_; }

 private:
  enum class JobStatus : std::uint8_t {
    kOk,
    kInvalidOutcome,  ///< ran, but a scenario validation failed
    kParseError,
    kFailed,  ///< threw while building or running
  };

  /// Runs one job into `scratch.record`; never throws.
  JobStatus runJob(const ServeJob& job, JobScratch& scratch);

  ServeOptions options_;
  WarmStateCache cache_;
  exec::LeasePool<JobScratch> scratchPool_;
  /// Per-call status buffer, reused so steady-state serveJobs calls do
  /// not allocate (serveJobs is not reentrant on one engine).
  std::vector<JobStatus> statuses_;
};

}  // namespace dsn::serve
