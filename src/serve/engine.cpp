#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/flight_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn::serve {

namespace {

// ---- record rendering ----
// Records render through one obs::JsonWriter over the worker's retained
// buffer. The writer allocates nothing itself, so once the buffer
// capacity has seen the workload's high-water mark the whole emit path
// never touches the heap.

/// Replaces `out` with the job's dsnet-error-v1 record.
void renderErrorRecord(std::string& out, const ServeJob& job,
                       std::string_view error) {
  out.clear();
  obs::JsonWriter w(out);
  w.beginObject();
  w.kv("schema", "dsnet-error-v1");
  w.kv("tool", "wsn_serve");
  w.kv("job", job.id);
  w.kv("line", static_cast<std::uint64_t>(job.index) + 1);
  w.kv("error", error);
  w.endObject();
}

void writeConfig(obs::JsonWriter& w, const ServeJob& job) {
  w.key("config").beginObject();
  w.kv("nodes", static_cast<std::uint64_t>(job.nodes));
  w.kv("seed", job.seed);
  w.kv("field_units", job.fieldUnits);
  w.kv("range", job.range);
  w.kv("deploy", deploymentWord(job.deploy));
  w.kv("drop", job.drop);
  w.kv("channels", static_cast<std::uint64_t>(job.channels));
  w.key("protocol");
  if (job.protocol)
    w.value(schemeWord(*job.protocol));
  else
    w.null();
  w.kv("trace_cap", static_cast<std::uint64_t>(job.traceCapacity));
  w.kv("mutates", job.mutates);
  w.kv("fingerprint", job.fingerprint);
  w.kv("scenario", job.scenarioText);
  w.endObject();
}

/// The job registry with a compact histogram summary (no buckets).
void writeMetrics(obs::JsonWriter& w, const obs::MetricsRegistry& reg) {
  w.key("metrics").beginObject();
  w.key("counters").beginObject();
  reg.visitCounters(
      [&](std::string_view name, std::uint64_t value) { w.kv(name, value); });
  w.endObject();
  w.key("gauges").beginObject();
  reg.visitGauges(
      [&](std::string_view name, double value) { w.kv(name, value); });
  w.endObject();
  w.key("histograms").beginObject();
  reg.visitHistograms([&](std::string_view name, const obs::Histogram& h) {
    w.key(name).beginObject();
    w.kv("count", h.count());
    w.kv("sum", h.sum());
    w.kv("min", h.minValue());
    w.kv("max", h.maxValue());
    w.kv("p50", h.percentile(0.50));
    w.kv("p95", h.percentile(0.95));
    w.endObject();
  });
  w.endObject();
  w.endObject();
}

/// Reorders completion-order deliveries into job-index order and hands
/// them to the sink incrementally. Records arriving ahead of their turn
/// are copied into the pending map (worker buffers are reused as soon
/// as deliver returns); the in-order common case emits straight from
/// the worker's buffer without a copy.
class Sequencer {
 public:
  explicit Sequencer(const std::function<void(std::string_view)>& emit)
      : emit_(emit) {}

  void deliver(std::size_t index, const std::string& record) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index == next_) {
      emit_(record);
      ++next_;
      while (!pending_.empty() && pending_.begin()->first == next_) {
        emit_(pending_.begin()->second);
        pending_.erase(pending_.begin());
        ++next_;
      }
    } else {
      pending_.emplace(index, record);
    }
  }

 private:
  std::mutex mu_;
  std::size_t next_ = 0;
  std::map<std::size_t, std::string> pending_;
  const std::function<void(std::string_view)>& emit_;
};

}  // namespace

ServeEngine::ServeEngine(ServeOptions options)
    : options_(options), cache_(options.cacheCapacity) {}

void ServeEngine::warmUp(const NetworkConfig* config) {
  const std::size_t workers = exec::resolveJobs(options_.jobs);
  scratchPool_.warmUp(workers, [&](JobScratch& ws) {
    ws.record.reserve(1 << 16);
    if (config != nullptr) ws.scratch.prepare(config->nodeCount, 1);
  });
  if (config != nullptr && options_.cacheCapacity > 0) cache_.lease(*config);
}

ServeEngine::JobStatus ServeEngine::runJob(const ServeJob& job,
                                           JobScratch& ws) {
  ws.record.clear();
  if (job.failed()) {
    renderErrorRecord(ws.record, job, job.parseError);
    return JobStatus::kParseError;
  }
  try {
    ScenarioOptions sopt = jobScenarioOptions(job);
    sopt.protocol.resolveScratch = &ws.scratch;

    // Job-local telemetry: a FRESH registry per job (see JobScratch
    // doc), installed as this thread's sink so every instrumentation
    // site inside the run lands here and nowhere else. Only when
    // telemetry is globally on — the zero-allocation serving
    // configuration must not even construct the registries (an empty
    // registry still owns deque blocks).
    const bool metered = obs::enabled();
    std::optional<obs::MetricsRegistry> jobMetrics;
    std::optional<obs::TimingRegistry> jobTiming;
    if (metered) jobMetrics.emplace();
    if (metered || options_.includeTiming) jobTiming.emplace();
    ScenarioOutcome outcome;
    {
      // Acquire the network BEFORE installing the job sinks: deployment
      // construction is infrastructure, attributed to the process
      // registry exactly like a cache-miss build, so a record never
      // depends on whether its network came warm from the cache or was
      // built on demand (warm and cold serves emit identical bytes).
      std::optional<SensorNetwork> privateNet;
      std::optional<WarmStateCache::Lease> lease;
      SensorNetwork* net = nullptr;
      if (job.mutates || options_.cacheCapacity == 0) {
        // Private build: the scenario reconfigures the network (or the
        // cache is bypassed — the cold baseline). Pre-warm the CSR
        // snapshot like the cache does, so its rebuild counter is part
        // of construction, not of the job's metrics. Builds on several
        // workers record concurrently, so the telemetry goes through
        // the same merge scope as a cache-miss build.
        {
          ConstructionTelemetryScope buildScope;
          privateNet.emplace(jobNetworkConfig(job));
          privateNet->graph().csrView();
        }
        net = &*privateNet;
      } else {
        lease.emplace(cache_.lease(jobNetworkConfig(job)));
        DSN_CHECK(!job.mutates,
                  "mutating job must not run on a shared warm network");
        // Scenario classified read-only: every event drives const paths
        // of SensorNetwork, so the shared warm instance is safe under
        // concurrent leases. runScenario's signature is non-const
        // because of the mutating event kinds this job cannot contain.
        net = const_cast<SensorNetwork*>(&lease->network());
      }

      std::optional<obs::ScopedMetricsSink> metricsSink;
      std::optional<obs::ScopedTimingSink> timingSink;
      if (metered) {
        metricsSink.emplace(*jobMetrics);
        timingSink.emplace(*jobTiming);
      }
      outcome = runScenario(*net, job.events, sopt);
    }

    obs::JsonWriter w(ws.record);
    w.beginObject();
    w.kv("schema", "dsnet-run-v1");
    w.kv("tool", "wsn_serve");
    w.kv("job", job.id);
    writeConfig(w, job);
    w.key("outcome");
    writeOutcomeJson(w, outcome);
    if (metered) writeMetrics(w, *jobMetrics);
    if (options_.includeTiming) {
      w.key("timing");
      obs::writeTimingJson(w, *jobTiming);
    }
    if (job.traceCapacity > 0) {
      w.key("trace").beginArray();
      for (const obs::FrEvent& e : outcome.traceEvents)
        obs::writeFrEventJson(w, e);
      w.endArray();
    }
    w.endObject();
    return outcome.valid ? JobStatus::kOk : JobStatus::kInvalidOutcome;
  } catch (const std::exception& e) {
    renderErrorRecord(ws.record, job, e.what());
    return JobStatus::kFailed;
  }
}

ServeReport ServeEngine::serveJobs(
    const std::vector<ServeJob>& jobs,
    const std::function<void(std::string_view)>& emit) {
  const auto t0 = std::chrono::steady_clock::now();
  const WarmStateCache::Stats before = cache_.stats();
  ServeReport report;
  // No more workers than jobs, as exec::forEachIndex caps its pool.
  const std::size_t workers =
      std::min(exec::resolveJobs(options_.jobs), jobs.size());
  report.workers = workers;
  report.jobsRun = jobs.size();

  // Reused across calls (capacity retained) so a steady-state serve
  // call makes zero engine-side allocations at one worker.
  std::vector<JobStatus>& statuses = statuses_;
  statuses.assign(jobs.size(), JobStatus::kOk);
  if (workers <= 1) {
    // Inline: one scratch for the whole loop, records emitted straight
    // from the worker buffer — the zero-allocation serving path.
    auto ws = scratchPool_.acquire();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      statuses[i] = runJob(jobs[i], *ws);
      emit(ws->record);
    }
  } else {
    Sequencer sequencer(emit);
    exec::ThreadPool pool(workers);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      pool.submit([this, &jobs, &statuses, &sequencer, i] {
        auto ws = scratchPool_.acquire();
        statuses[i] = runJob(jobs[i], *ws);
        sequencer.deliver(i, ws->record);
      });
    }
    pool.wait();
  }

  for (const JobStatus s : statuses) {
    switch (s) {
      case JobStatus::kOk: break;
      case JobStatus::kInvalidOutcome: ++report.invalidOutcomes; break;
      case JobStatus::kParseError: ++report.parseErrors; break;
      case JobStatus::kFailed: ++report.jobsFailed; break;
    }
  }
  const WarmStateCache::Stats after = cache_.stats();
  report.cache.hits = after.hits - before.hits;
  report.cache.misses = after.misses - before.misses;
  report.cache.evictions = after.evictions - before.evictions;
  report.cache.csrFresh = after.csrFresh - before.csrFresh;
  report.cache.csrStale = after.csrStale - before.csrStale;
  const std::uint64_t lookups = report.cache.hits + report.cache.misses;
  report.cache.hitRate =
      lookups == 0 ? 0.0
                   : static_cast<double>(report.cache.hits) /
                         static_cast<double>(lookups);
  report.wallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return report;
}

ServeReport ServeEngine::serveStream(std::istream& in, std::ostream& out) {
  std::vector<ServeJob> jobs;
  std::string line;
  std::uint64_t lastId = 0;
  while (std::getline(in, line)) {
    // JSONL with operator affordances: blank lines and #-comments skip.
    std::size_t start = 0;
    while (start < line.size() &&
           (line[start] == ' ' || line[start] == '\t'))
      ++start;
    if (start == line.size() || line[start] == '#') continue;
    const std::size_t index = jobs.size();
    jobs.push_back(parseJobLine(line, index, index > 0 ? &lastId : nullptr));
    lastId = jobs.back().id;
  }
  return serveJobs(jobs, [&out](std::string_view record) {
    out << record << '\n';
  });
}

}  // namespace dsn::serve
