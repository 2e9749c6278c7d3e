#include "serve/engine.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "radio/trace.hpp"
#include "util/error.hpp"

namespace dsn::serve {

namespace {

// ---- allocation-free record appenders ----
// The record is built by appending into the worker's retained buffer;
// numbers render through stack buffers (to_chars / snprintf), so once
// the buffer capacity has seen the workload's high-water mark the whole
// emit path never touches the heap. obs::JsonWriter is NOT used here —
// it builds on ostringstream, which allocates per record.

void appendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void appendI64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void appendDouble(std::string& out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void appendQuoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const char* deployWord(DeploymentKind k) {
  switch (k) {
    case DeploymentKind::kIncrementalAttach: return "attach";
    case DeploymentKind::kUniform: return "uniform";
    case DeploymentKind::kGrid: return "grid";
    case DeploymentKind::kLine: return "line";
    case DeploymentKind::kStar: return "star";
  }
  return "attach";
}

const char* schemeWord(BroadcastScheme s) {
  switch (s) {
    case BroadcastScheme::kDfo: return "dfo";
    case BroadcastScheme::kCff: return "cff";
    case BroadcastScheme::kImprovedCff: return "icff";
    case BroadcastScheme::kFlooding: return "flood";
    case BroadcastScheme::kGossip: return "gossip";
    case BroadcastScheme::kGossipAdaptive: return "agossip";
    case BroadcastScheme::kCounter: return "counter";
    case BroadcastScheme::kDistance: return "distance";
    case BroadcastScheme::kRlnc: return "rlnc";
  }
  return "icff";
}

void appendErrorRecord(std::string& out, const ServeJob& job,
                       std::string_view error) {
  out += "{\"schema\":\"dsnet-error-v1\",\"tool\":\"wsn_serve\",\"job\":";
  appendU64(out, job.id);
  out += ",\"line\":";
  appendU64(out, static_cast<std::uint64_t>(job.index) + 1);
  out += ",\"error\":";
  appendQuoted(out, error);
  out += '}';
}

void appendConfig(std::string& out, const ServeJob& job) {
  out += "\"config\":{\"nodes\":";
  appendU64(out, job.nodes);
  out += ",\"seed\":";
  appendU64(out, job.seed);
  out += ",\"field_units\":";
  appendI64(out, job.fieldUnits);
  out += ",\"range\":";
  appendDouble(out, job.range);
  out += ",\"deploy\":\"";
  out += deployWord(job.deploy);
  out += "\",\"drop\":";
  appendDouble(out, job.drop);
  out += ",\"channels\":";
  appendU64(out, job.channels);
  out += ",\"protocol\":";
  if (job.protocol) {
    out += '"';
    out += schemeWord(*job.protocol);
    out += '"';
  } else {
    out += "null";
  }
  out += ",\"trace_cap\":";
  appendU64(out, job.traceCapacity);
  out += ",\"mutates\":";
  out += job.mutates ? "true" : "false";
  out += ",\"fingerprint\":";
  appendU64(out, job.fingerprint);
  out += ",\"scenario\":";
  appendQuoted(out, job.scenarioText);
  out += '}';
}

void appendOutcome(std::string& out, const ScenarioOutcome& o) {
  out += "\"outcome\":{\"events\":";
  appendU64(out, o.eventsExecuted);
  out += ",\"broadcasts\":";
  appendU64(out, o.broadcasts);
  out += ",\"arenas\":";
  appendU64(out, o.arenas);
  out += ",\"reliable_broadcasts\":";
  appendU64(out, o.reliableBroadcasts);
  out += ",\"multicasts\":";
  appendU64(out, o.multicasts);
  out += ",\"gathers\":";
  appendU64(out, o.gathers);
  out += ",\"crashes\":";
  appendU64(out, o.crashes);
  out += ",\"repairs\":";
  appendU64(out, o.repairs);
  out += ",\"worst_coverage\":";
  appendDouble(out, o.worstCoverage);
  out += ",\"worst_yield\":";
  appendDouble(out, o.worstYield);
  out += ",\"valid\":";
  out += o.valid ? "true" : "false";
  if (!o.valid) {
    out += ",\"first_violation\":";
    appendQuoted(out, o.firstViolation);
  }
  out += ",\"trace_events\":";
  appendU64(out, o.traceEvents.size());
  out += ",\"trace_dropped\":";
  appendU64(out, o.traceDropped);
  out += '}';
}

void appendMetrics(std::string& out, const obs::MetricsRegistry& reg) {
  out += "\"metrics\":{\"counters\":{";
  bool first = true;
  reg.visitCounters([&](std::string_view name, std::uint64_t value) {
    if (!first) out += ',';
    first = false;
    appendQuoted(out, name);
    out += ':';
    appendU64(out, value);
  });
  out += "},\"gauges\":{";
  first = true;
  reg.visitGauges([&](std::string_view name, double value) {
    if (!first) out += ',';
    first = false;
    appendQuoted(out, name);
    out += ':';
    appendDouble(out, value);
  });
  out += "},\"histograms\":{";
  first = true;
  reg.visitHistograms([&](std::string_view name, const obs::Histogram& h) {
    if (!first) out += ',';
    first = false;
    appendQuoted(out, name);
    out += ":{\"count\":";
    appendU64(out, h.count());
    out += ",\"sum\":";
    appendDouble(out, h.sum());
    out += ",\"min\":";
    appendDouble(out, h.minValue());
    out += ",\"max\":";
    appendDouble(out, h.maxValue());
    out += ",\"p50\":";
    appendDouble(out, h.percentile(0.50));
    out += ",\"p95\":";
    appendDouble(out, h.percentile(0.95));
    out += '}';
  });
  out += "}}";
}

void appendTrace(std::string& out, const std::vector<TraceEvent>& events) {
  out += "\"trace\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    out += traceEventJson(events[i]);
  }
  out += ']';
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
    appendErrorRecord(ws.record, job, job.parseError);
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

    ws.record += "{\"schema\":\"dsnet-run-v1\",\"tool\":\"wsn_serve\","
                 "\"job\":";
    appendU64(ws.record, job.id);
    ws.record += ',';
    appendConfig(ws.record, job);
    ws.record += ',';
    appendOutcome(ws.record, outcome);
    if (metered) {
      ws.record += ',';
      appendMetrics(ws.record, *jobMetrics);
    }
    if (options_.includeTiming) {
      obs::JsonWriter w;
      obs::writeTimingJson(w, *jobTiming);
      ws.record += ",\"timing\":";
      ws.record += w.str();
    }
    if (job.traceCapacity > 0) {
      ws.record += ',';
      appendTrace(ws.record, outcome.traceEvents);
    }
    ws.record += '}';
    return outcome.valid ? JobStatus::kOk : JobStatus::kInvalidOutcome;
  } catch (const std::exception& e) {
    ws.record.clear();
    appendErrorRecord(ws.record, job, e.what());
    return JobStatus::kFailed;
  }
}

ServeReport ServeEngine::serveJobs(
    const std::vector<ServeJob>& jobs,
    const std::function<void(std::string_view)>& emit) {
  const auto t0 = std::chrono::steady_clock::now();
  const WarmStateCache::Stats before = cache_.stats();
  ServeReport report;
  const std::size_t workers = exec::resolveJobs(options_.jobs);
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
