// serve_warm and serve_churn: one client process feeding seeded
// dsnet-job-v1 streams to the resident serve engine in a closed loop,
// set up as wsn_serve sets it up (telemetry on, cache capacity 64).
//
// Untraced run: a one-worker pass (records are emitted inline as each
// job finishes, so the gap between two emits is one job's latency) and
// three nproc-worker passes (jobs/s over one serveJobs call on the whole
// stream) alternate until the run's seconds are spent.
//
// Traced run: the same set-up under spans, then a replay of every job
// through the public calls the engine makes (parse, lease or private
// build, runScenario under job-local obs sinks) plus per-layer probes,
// then the engine passes that give the ratios (nproc scaling,
// telemetry on/off, timing tree on/off).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "broadcast/convergecast.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "graph/unit_disk.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using dsn::serve::ServeEngine;
using dsn::serve::ServeJob;
using dsn::serve::ServeReport;

constexpr std::size_t kCacheCapacity = 64;  // the wsn_serve default
constexpr int kSetups = 7;
constexpr int kManyPasses = 3;

ServeJob makeJob(std::size_t index, std::size_t nodes, std::uint64_t seed,
                 std::string text) {
  ServeJob job;
  job.index = index;
  job.id = index;
  job.nodes = nodes;
  job.seed = seed;
  job.scenarioText = std::move(text);
  job.events = dsn::parseScenario(job.scenarioText);
  job.mutates = dsn::scenarioMutatesNetwork(job.events);
  job.fingerprint =
      dsn::deploymentFingerprint(dsn::serve::jobNetworkConfig(job));
  return job;
}

/// serve_warm: the demo shape perf_serve uses (serve::demoJobs): 10
/// deployments of 200 attach-deployed nodes; light slotted broadcasts,
/// validation probes and counter-rival probes; every 10th job a heavy
/// 50-node request (reliable broadcast under 10% loss, gather, or
/// another rival); every 100th the demo's churn job. Two departures keep
/// the tail steady across seeds. demoJobs assigns deployments
/// round-robin, which puts every heavy and churn job on one deployment;
/// here each job draws its deployment, heavy jobs from 40 deployments of
/// their own, each broadcast names a drawn source instead of `random`
/// (which is the same node for every job on one deployment), and the
/// passes rotate through kWarmDraws draws over the same deployments. And
/// the heavy rotation lists the reliable broadcast three times, so the
/// slowest heavy class (about 3% of jobs) straddles p99 instead of the 1%
/// churn class ending exactly at it.
constexpr std::size_t kWarmDeployments = 10;
constexpr std::size_t kWarmHeavyDeployments = 40;
constexpr std::size_t kWarmHeavyNodes = 50;
/// Distinct draws of the warm stream. A 30-second run serves each two to
/// three times, so all of them are served, and counted, even on a host
/// twice as slow.
constexpr std::size_t kWarmDraws = 4;

std::size_t warmNodes(bool tiny) { return tiny ? 80 : 200; }

/// Seed of warm deployment `d`: the first 10 are the light deployments,
/// the next 40 the heavy ones.
std::uint64_t warmDeploymentSeed(std::uint64_t seed, std::uint64_t d) {
  // Shifted to stay exact as a JSON number.
  return (dsn::ExperimentConfig::mix64(seed) >> 40) + 1000 * d;
}

/// Every deployment a warm stream can lease, for the cache fill.
std::vector<dsn::NetworkConfig> warmDeployments(std::uint64_t seed,
                                                bool tiny) {
  std::vector<dsn::NetworkConfig> out;
  for (std::uint64_t d = 0; d < kWarmDeployments + kWarmHeavyDeployments;
       ++d) {
    ServeJob job;
    job.nodes = d < kWarmDeployments ? warmNodes(tiny) : kWarmHeavyNodes;
    job.seed = warmDeploymentSeed(seed, d);
    out.push_back(dsn::serve::jobNetworkConfig(job));
  }
  return out;
}

std::vector<ServeJob> warmStream(std::uint64_t seed, std::uint64_t pass,
                                 bool tiny) {
  // %llu is the drawn source node.
  static const char* const kLight[] = {
      "broadcast %llu icff\nvalidate", "broadcast %llu cff",
      "validate",                         "broadcast %llu icff",
      "broadcast %llu counter",         "broadcast %llu cff\nvalidate",
  };
  static const char* const kHeavy[] = {
      "faults drop 0.1\nrbroadcast %llu icff 6",
      "gather",
      "broadcast %llu agossip\ngather",
      "faults drop 0.1\nrbroadcast %llu icff 6",
      "broadcast %llu rlnc",
      "broadcast %llu dfo",
      "faults drop 0.1\nrbroadcast %llu icff 6",
      "broadcast %llu gossip",
      "broadcast %llu flood",
      "broadcast %llu distance",
  };
  constexpr std::size_t kLightCount = sizeof(kLight) / sizeof(kLight[0]);
  constexpr std::size_t kHeavyCount = sizeof(kHeavy) / sizeof(kHeavy[0]);
  const char* const churn =
      "churn 1.5 2\nrepair\nvalidate\nbroadcast random icff";
  const std::size_t count = tiny ? 200 : 2000;
  using dsn::ExperimentConfig;
  dsn::Rng rng(ExperimentConfig::mix64(seed ^ ExperimentConfig::mix64(pass + 0x5E4E)));
  std::vector<ServeJob> jobs;
  jobs.reserve(count);
  std::size_t light = 0;
  std::size_t heavy = 0;
  const auto withSource = [&](const char* pattern, std::size_t nodes) {
    char text[96];
    std::snprintf(text, sizeof(text), pattern,
                  static_cast<unsigned long long>(rng.uniform(nodes)));
    return std::string(text);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = rng.uniform(kWarmDeployments);
    const std::uint64_t h =
        kWarmDeployments + rng.uniform(kWarmHeavyDeployments);
    if ((i + 1) % 100 == 0) {
      jobs.push_back(
          makeJob(i, warmNodes(tiny), warmDeploymentSeed(seed, d), churn));
    } else if ((i + 1) % 10 == 0) {
      jobs.push_back(makeJob(
          i, kWarmHeavyNodes, warmDeploymentSeed(seed, h),
          withSource(kHeavy[heavy++ % kHeavyCount], kWarmHeavyNodes)));
    } else {
      jobs.push_back(makeJob(
          i, warmNodes(tiny), warmDeploymentSeed(seed, d),
          withSource(kLight[light++ % kLightCount], warmNodes(tiny))));
    }
  }
  return jobs;
}

/// serve_churn: every job has its own seed and changes its network —
/// a leave and a join, churn ticks with repair, then validation and a
/// slotted broadcast. One job in twelve is heavy: a random-waypoint
/// move of every node and more churn before validating, gathering and
/// broadcasting. Magnitudes 2.5 and 3 hit the seed's churn-victim
/// defect in about 1% of jobs; those jobs stay in the stream.
std::vector<ServeJob> churnStream(std::uint64_t seed, bool tiny) {
  const std::size_t count = tiny ? 60 : 600;
  const std::size_t nodes = tiny ? 80 : 200;
  const double side = 1000.0;  // the default 10 x 10 units of 100 m
  std::vector<ServeJob> jobs;
  jobs.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    dsn::Rng rng(dsn::ExperimentConfig::mix64(
        seed ^ dsn::ExperimentConfig::mix64(j + 1)));
    const std::uint64_t jobSeed = rng.next() >> 32;  // exact as a JSON number
    const auto leaver = 1 + rng.uniform(nodes - 1);
    const double x = rng.uniformReal(0.0, side);
    const double y = rng.uniformReal(0.0, side);
    const bool heavy = j % 12 == 11;
    char text[256];
    if (heavy) {
      std::snprintf(text, sizeof(text),
                    "leave %llu\njoin %.1f %.1f\nwaypoint 1 20\nchurn 3 4\n"
                    "validate\ngather\nbroadcast random icff",
                    static_cast<unsigned long long>(leaver), x, y);
    } else {
      std::snprintf(text, sizeof(text),
                    "leave %llu\njoin %.1f %.1f\nchurn 2.5 3\nvalidate\n"
                    "broadcast random %s",
                    static_cast<unsigned long long>(leaver), x, y,
                    rng.chance(0.5) ? "icff" : "cff");
    }
    jobs.push_back(makeJob(j, nodes, jobSeed, text));
  }
  return jobs;
}

bool isErrorRecord(std::string_view record) {
  return record.starts_with("{\"schema\":\"dsnet-error-v1\"");
}

/// Simulated rounds a record reports (its sim.rounds counter).
std::uint64_t recordRounds(std::string_view record) {
  constexpr std::string_view key = "\"sim.rounds\":";
  const std::size_t at = record.find(key);
  if (at == std::string_view::npos) return 0;
  return std::strtoull(record.data() + at + key.size(), nullptr, 10);
}

std::unique_ptr<ServeEngine> makeEngine(int workers, bool timing) {
  dsn::serve::ServeOptions so;
  so.jobs = workers;
  so.cacheCapacity = kCacheCapacity;
  so.includeTiming = timing;
  auto engine = std::make_unique<ServeEngine>(so);
  engine->warmUp();
  return engine;
}

bool isWarm(const Options& o) { return o.workload == "serve_warm"; }

/// Draw `pass` of the job stream: serve_warm draws afresh over the same
/// deployments; serve_churn has one stream.
std::vector<ServeJob> makeStream(const Options& o, std::uint64_t pass) {
  return isWarm(o) ? warmStream(o.seed, pass, o.tiny)
                   : churnStream(o.seed, o.tiny);
}

struct ServeSetup {
  std::vector<ServeJob> jobs;
  std::unique_ptr<ServeEngine> one;   ///< one worker
  std::unique_ptr<ServeEngine> many;  ///< nproc workers
  std::unique_ptr<ServeEngine> timed;  ///< one worker, timing tree on (traced)
};

/// Everything before the first timed operation: stream generation,
/// engine construction and scratch warm-up, the cache fill (one lease
/// per distinct read-only deployment), and a short warm-up pass.
std::unique_ptr<ServeSetup> setUp(const Options& o, Tracer* tr) {
  auto s = std::make_unique<ServeSetup>();
  {
    SpanScope span(tr, "bench.generate_stream", Layer::kBench);
    s->jobs = makeStream(o, 0);
  }
  std::vector<ServeEngine*> engines;
  {
    SpanScope span(tr, "serve.engine_construct", Layer::kServe);
    s->one = makeEngine(1, false);
    s->many = makeEngine(o.workers, false);
    engines = {s->one.get(), s->many.get()};
    if (tr != nullptr) {
      s->timed = makeEngine(1, true);
      engines.push_back(s->timed.get());
    }
  }
  {
    SpanScope span(tr, "serve.cache_fill", Layer::kServe);
    if (isWarm(o)) {
      for (const dsn::NetworkConfig& cfg : warmDeployments(o.seed, o.tiny))
        for (ServeEngine* e : engines) e->cache().lease(cfg);
    }
  }
  {
    SpanScope span(tr, "serve.warmup_pass", Layer::kEngine);
    const std::size_t n = std::min<std::size_t>(s->jobs.size(), 50);
    const std::vector<ServeJob> prefix(s->jobs.begin(),
                                       s->jobs.begin() +
                                           static_cast<std::ptrdiff_t>(n));
    for (ServeEngine* e : engines) e->serveJobs(prefix, [](std::string_view) {});
  }
  return s;
}

/// One serveJobs call over the whole stream.
struct Pass {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::size_t records = 0;
  std::size_t recordBytes = 0;
  std::uint64_t rounds = 0;
  ServeReport report;
  std::vector<double> latencyMs;  ///< one-worker passes only
  /// Each job's [previous emit, own emit] interval (traced runs).
  std::vector<std::pair<Clock::time_point, Clock::time_point>> jobTimes;
  std::vector<bool> errorRecord;
  std::uint64_t failures() const {
    return report.parseErrors + report.jobsFailed + report.invalidOutcomes;
  }
};

struct PassOptions {
  bool latency = false;  ///< emit gaps are job latencies (one worker)
  bool inspect = false;  ///< count rounds, error records; keep records
  std::vector<std::string>* keep = nullptr;
  bool intervals = false;  ///< keep each job's emit interval
  std::size_t corruptAt = SIZE_MAX;  ///< smoke-test fault injection
};

Pass servePass(ServeEngine& engine, const std::vector<ServeJob>& jobs,
               const PassOptions& po) {
  Pass p;
  if (po.latency) p.latencyMs.reserve(jobs.size());
  Fnv hash;
  Clock::time_point last;
  const std::function<void(std::string_view)> emit =
      [&](std::string_view record) {
        const Clock::time_point t = Clock::now();
        if (po.latency) {
          p.latencyMs.push_back(
              std::chrono::duration<double, std::milli>(t - last).count());
          if (po.intervals) p.jobTimes.emplace_back(last, t);
        }
        if (p.records == po.corruptAt) {
          std::string bad(record);
          bad[bad.size() / 2] ^= 0x01;
          hash.add(bad);
        } else {
          hash.add(record);
        }
        hash.add("\n");
        p.recordBytes += record.size();
        if (po.inspect) {
          p.rounds += recordRounds(record);
          p.errorRecord.push_back(isErrorRecord(record));
          if (po.keep != nullptr) po.keep->emplace_back(record);
        }
        ++p.records;
        last = Clock::now();
      };
  const Clock::time_point t0 = Clock::now();
  last = t0;
  p.report = engine.serveJobs(jobs, emit);
  p.seconds = secondsSince(t0);
  p.digest = hash.value();
  return p;
}

void checkPass(Result& r, const Options& o, const Pass& p,
               const Pass& reference, std::size_t jobs) {
  r.check("records_complete", p.records == jobs && p.report.jobsRun == jobs,
          std::to_string(p.records) + " records for " +
              std::to_string(jobs) + " jobs");
  r.check("records_identical_across_workers",
          p.digest == reference.digest && p.records == reference.records,
          "record digest differs from the one-worker pass");
  r.check("csr_stale_zero", p.report.cache.csrStale == 0,
          std::to_string(p.report.cache.csrStale) + " stale CSR leases");
  r.check("failures_deterministic", p.failures() == reference.failures(),
          "failure count changed between passes");
  const auto& c = p.report.cache;
  if (o.workload == "serve_warm") {
    r.check("cache_warm", c.misses == 0 && c.hits > 0,
            std::to_string(c.misses) + " cache misses after the fill");
  } else {
    r.check("cache_bypassed", c.hits == 0 && c.misses == 0,
            "a mutating job touched the warm cache");
  }
}

/// Counts a stream's jobs as the workload's operations. Only the first
/// pass over a stream counts them: every later pass serves the same jobs
/// again for timing, and must repeat their failures exactly
/// (failures_deterministic). So `attempted` and `failed` follow from the
/// seed and the streams served, not from how many repeats fit the run.
void countStream(Result& r, const Pass& p) {
  r.attempted += p.report.jobsRun;
  r.failed += p.failures();
}

void writeLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& l : lines) out << l << '\n';
}

void addLatencyNotes(Result& r, const dsn::Samples& latency) {
  r.notes.push_back("latency samples " + std::to_string(latency.count()) +
                    " (one worker), " +
                    std::to_string(countAbove(latency, latency.quantile(0.99))) +
                    " beyond p99");
}

// ---------------------------------------------------------------- untraced

Result runUntraced(const Options& o) {
  Result r;
  dsn::obs::setEnabled(true);  // wsn_serve always serves with telemetry on

  // Set-up several times; the last one is measured. Every timed span is
  // rescaled to the reference host (see HostSpeed); `raw` keeps the
  // unscaled figures for the notes.
  HostSpeed host;
  dsn::Samples setups, rawSetups;
  std::unique_ptr<ServeSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const double before = host.sample(1);
    const Clock::time_point t0 = Clock::now();
    s = setUp(o, nullptr);
    rawSetups.add(secondsSince(t0));
    setups.add(rawSetups.values().back() *
               HostSpeed::scale(1, before, host.sample(1)));
  }
  if (!o.emitStream.empty()) {
    std::vector<std::string> lines;
    for (const ServeJob& job : s->jobs)
      lines.push_back(dsn::serve::formatJobLine(job));
    writeLines(o.emitStream, lines);
  }

  dsn::Samples latency, jobRates, roundRates, rawLatency, rawJobRates;
  std::vector<std::string> kept;
  // serve_warm rotates through kWarmDraws streams, serve_churn serves one.
  const std::size_t streams = isWarm(o) ? kWarmDraws : 1;
  std::vector<std::vector<ServeJob>> draws;  ///< streams 1.. (0 is s->jobs)
  std::vector<Pass> firsts;  ///< each stream's first one-worker pass
  const Clock::time_point start = Clock::now();
  for (std::uint64_t iteration = 0;; ++iteration) {
    const std::size_t draw = iteration % streams;
    if (draw > draws.size()) draws.push_back(makeStream(o, draw));
    const std::vector<ServeJob>& jobs = draw == 0 ? s->jobs : draws[draw - 1];

    PassOptions one;
    one.latency = true;
    one.inspect = true;
    one.keep = iteration == 0 && !o.emitRecords.empty() ? &kept : nullptr;
    const double before1 = host.sample(1);
    const Pass p1 = servePass(*s->one, jobs, one);
    const double scale1 = HostSpeed::scale(1, before1, host.sample(1));
    if (draw == firsts.size()) {
      firsts.push_back(p1);
      countStream(r, p1);
    }
    // A stream served again must give the same records as the first time.
    checkPass(r, o, p1, firsts[draw], jobs.size());
    for (const double ms : p1.latencyMs) {
      rawLatency.add(ms);
      latency.add(ms * scale1);
    }

    // An nproc pass is short and its speed depends on all four vCPUs, so
    // it runs several times per one-worker pass.
    PassOptions many;
    if (o.inject == "corrupt-record") many.corruptAt = jobs.size() / 2;
    for (int k = 0; k < kManyPasses; ++k) {
      const double beforeN = host.sample(o.workers);
      const Pass pn = servePass(*s->many, jobs, many);
      const double secondsN =
          pn.seconds *
          HostSpeed::scale(o.workers, beforeN, host.sample(o.workers));
      checkPass(r, o, pn, p1, jobs.size());
      rawJobRates.add(static_cast<double>(jobs.size()) / pn.seconds);
      jobRates.add(static_cast<double>(jobs.size()) / secondsN);
      roundRates.add(static_cast<double>(p1.rounds) / secondsN);
    }
    r.check("stream_simulates", p1.rounds > 0,
            "no simulated rounds in the stream");
    if (secondsSince(start) >= o.seconds) break;
  }
  if (!o.emitRecords.empty()) writeLines(o.emitRecords, kept);

  r.digest = firsts[0].digest;
  addLatencyNotes(r, latency);
  r.notes.push_back("passes " + std::to_string(jobRates.count() / kManyPasses) +
                    " x (" + std::to_string(s->jobs.size()) +
                    " jobs at 1 worker + " + std::to_string(kManyPasses) +
                    " x " + std::to_string(s->jobs.size()) + " at " +
                    std::to_string(o.workers) + ")" +
                    (isWarm(o) ? ", rotating through " +
                                     std::to_string(firsts.size()) + " draws"
                               : std::string()));
  r.notes.push_back("unscaled: jobs_per_s " + fmt(rawJobRates.median(), 1) +
                    ", job_p50_ms " + fmt(rawLatency.median()) +
                    ", job_p99_ms " + fmt(rawLatency.quantile(0.99)) +
                    ", setup_s " + fmt(rawSetups.median()));
  r.metric("jobs_per_s", jobRates.median(), "jobs/s");
  r.metric("job_p50_ms", latency.median(), "ms");
  r.metric("job_p99_ms", latency.quantile(0.99), "ms");
  r.metric("rounds_per_s", roundRates.median(), "rounds/s");
  r.metric("setup_s", setups.median(), "s");
  r.metric("peak_rss_mb", peakRssMb(), "MB");
  return r;
}

// ------------------------------------------------------------------ traced

struct ReplayTotals {
  std::size_t jobs = 0;
  std::size_t builds = 0;
  std::size_t leases = 0;
  std::size_t validateProbes = 0;
  std::size_t gatherProbes = 0;
  std::size_t validations = 0;
  std::size_t failures = 0;
  std::int64_t jobParseNs = 0;
  std::int64_t scenarioParseNs = 0;
  std::int64_t leaseNs = 0;
  std::int64_t deployNs = 0;
  std::int64_t buildNs = 0;
  std::int64_t csrNs = 0;
  std::int64_t unitDiskNs = 0;
  std::int64_t scenarioNs = 0;
  std::int64_t scenarioSelfNs = 0;
  std::int64_t validateNs = 0;
  std::int64_t gatherNs = 0;
  /// Per job: network acquisition (lease or private build) plus
  /// runScenario, in microseconds — the engine's job time without its
  /// own overhead.
  std::vector<double> acquireAndScenarioUs;
  PhaseTotals phases;
  RadioCounts counts;
};

/// Validations runScenario performs: one per event (the implicit check,
/// or the explicit `validate`), skipped while crashes leave the
/// structure stale — which never outlasts an event in these streams,
/// since churn ticks repair before they end.
std::size_t scenarioValidations(const ServeJob& job) {
  return job.events.size();
}

bool hasGather(const ServeJob& job) {
  return std::any_of(job.events.begin(), job.events.end(),
                     [](const dsn::ScenarioEvent& e) {
                       return e.kind == dsn::ScenarioEvent::Kind::kGather;
                     });
}

/// Replays every job through the public calls the engine makes, one job
/// at a time, with a span around each call and the job's obs phases
/// attached; probes time validation, unit-disk wiring and gathers on the
/// job's network afterwards.
ReplayTotals replay(Tracer& tr, ServeEngine& engine,
                    const std::vector<ServeJob>& jobs,
                    const std::vector<bool>& engineErrors, Result& r) {
  ReplayTotals t;
  dsn::ResolveScratch scratch;
  std::vector<std::string> lines;
  lines.reserve(jobs.size());
  for (const ServeJob& job : jobs)
    lines.push_back(dsn::serve::formatJobLine(job));

  // Runs `body` under a span; returns the span.
  auto timed = [&](const char* name, Layer layer, std::uint64_t id,
                   const auto& body) {
    const int span = tr.open(name, layer, id);
    body();
    tr.close(span);
    return span;
  };
  const auto ns = [&](int span) { return tr.span(span).durationNs(); };

  for (const ServeJob& original : jobs) {
    const std::uint64_t id = original.index;
    SpanScope jobSpan(&tr, "bench.replay_job", Layer::kBench, id);
    ++t.jobs;
    const std::int64_t acquireBefore = t.leaseNs + t.deployNs + t.buildNs +
                                       t.csrNs;
    ServeJob job;
    t.jobParseNs += ns(timed("serve.job_parse", Layer::kServe, id, [&] {
      job = dsn::serve::parseJobLine(lines[id], original.index);
    }));
    t.scenarioParseNs += ns(timed("core.scenario_parse", Layer::kCore, id, [&] {
      job.events = dsn::parseScenario(job.scenarioText);
    }));
    r.check("replay_parses_jobs", !job.failed() &&
                                      job.fingerprint == original.fingerprint,
            "job line does not round-trip: " + job.parseError);

    const dsn::NetworkConfig cfg = dsn::serve::jobNetworkConfig(job);
    std::optional<dsn::SensorNetwork> privateNet;
    std::optional<dsn::serve::WarmStateCache::Lease> lease;
    std::vector<dsn::Point2D> points;
    dsn::SensorNetwork* net = nullptr;
    if (job.mutates) {
      ++t.builds;
      t.deployNs += ns(timed("graph.deploy", Layer::kGraph, id,
                             [&] { points = deployPoints(cfg); }));
      dsn::obs::MetricsRegistry buildMetrics;
      dsn::obs::TimingRegistry buildTiming;
      const int build = timed("core.network_build", Layer::kCore, id, [&] {
        dsn::obs::ScopedMetricsSink ms(buildMetrics);
        dsn::obs::ScopedTimingSink ts(buildTiming);
        privateNet.emplace(points, cfg.range, cfg.cluster);
      });
      t.buildNs += ns(build);
      tr.attach(build, buildTiming);
      t.phases.add(tr.span(build).phases);
      t.counts.add(buildMetrics);
      t.csrNs += ns(timed("graph.csr", Layer::kGraph, id,
                          [&] { privateNet->graph().csrView(); }));
      net = &*privateNet;
    } else {
      ++t.leases;
      t.leaseNs += ns(timed("serve.lease", Layer::kServe, id, [&] {
        lease.emplace(engine.cache().lease(cfg));
      }));
      net = const_cast<dsn::SensorNetwork*>(&lease->network());
    }

    dsn::ScenarioOptions sopt = dsn::serve::jobScenarioOptions(job);
    sopt.protocol.resolveScratch = &scratch;
    bool failed = false;
    const int scenario = tr.open("core.run_scenario", Layer::kCore, id);
    dsn::obs::MetricsRegistry jobMetrics;
    dsn::obs::TimingRegistry jobTiming;
    {
      dsn::obs::ScopedMetricsSink ms(jobMetrics);
      dsn::obs::ScopedTimingSink ts(jobTiming);
      try {
        dsn::runScenario(*net, job.events, sopt);
      } catch (const std::exception&) {
        failed = true;
      }
    }
    tr.close(scenario);
    tr.attach(scenario, jobTiming);
    t.counts.add(jobMetrics);
    r.check("replay_matches_engine", failed == engineErrors[id],
            "job " + std::to_string(id) +
                " failed in one of replay and engine only");
    if (failed) {
      ++t.failures;
    } else {
      // Validation inside runScenario has no obs phase; carve its
      // estimate (validations x this job's probe) out of the span.
      const std::int64_t probe = ns(timed(
          "cluster.validate", Layer::kCluster, id, [&] { (void)net->validate(); }));
      ++t.validateProbes;
      t.validateNs += probe;
      const std::size_t validations = scenarioValidations(job);
      t.validations += validations;
      const std::int64_t estimate = std::min(
          static_cast<std::int64_t>(validations) * probe,
          std::max<std::int64_t>(0, tr.span(scenario).selfNs()));
      tr.attachPhase(scenario, "cluster.validate.estimate", Layer::kCluster,
                     validations, estimate);
      if (job.mutates) {
        t.unitDiskNs += ns(timed("graph.unit_disk", Layer::kGraph, id, [&] {
          (void)dsn::buildUnitDiskGraph(points, cfg.range);
        }));
      }
      if (hasGather(job)) {
        ++t.gatherProbes;
        t.gatherNs += ns(timed("broadcast.gather", Layer::kBroadcast, id, [&] {
          std::vector<std::uint64_t> values(net->graph().size(), 0);
          for (const dsn::NodeId v : net->clusterNet().netNodes())
            values[v] = v;
          (void)dsn::runConvergecast(net->clusterNet(), values,
                                     sopt.protocol);
        }));
      }
    }
    const Span& sc = tr.span(scenario);
    t.acquireAndScenarioUs.push_back(
        static_cast<double>(t.leaseNs + t.deployNs + t.buildNs + t.csrNs -
                            acquireBefore + sc.durationNs()) /
        1e3);
    t.scenarioNs += sc.durationNs();
    t.scenarioSelfNs += sc.selfNs();
    t.phases.add(sc.phases);
  }
  return t;
}

Result runTraced(const Options& o) {
  Result r;
  dsn::obs::setEnabled(true);
  Tracer tr;
  const int root = tr.open("bench.traced_run", Layer::kBench);
  std::unique_ptr<ServeSetup> s;
  {
    SpanScope span(&tr, "bench.setup", Layer::kBench);
    s = setUp(o, &tr);
  }
  const std::vector<ServeJob>& jobs = s->jobs;
  const Clock::time_point start = Clock::now();

  // The one-worker pass first: its records give the engine's per-job
  // outcome the replay is checked against.
  std::optional<Pass> reference;
  dsn::Samples rate1, rateN, rateTimed;
  // Per-job latency sums over the one-worker passes, telemetry on / off.
  std::vector<double> lat1(jobs.size(), 0.0), latOff(jobs.size(), 0.0);
  const auto addLatencies = [](std::vector<double>& sums, const Pass& p) {
    for (std::size_t j = 0; j < p.latencyMs.size(); ++j)
      sums[j] += p.latencyMs[j];
  };
  ReplayTotals t;
  for (std::uint64_t iteration = 0;; ++iteration) {
    {
      SpanScope pass(&tr, "engine.pass_1w", Layer::kEngine, iteration);
      PassOptions po;
      po.latency = true;
      po.inspect = iteration == 0;
      po.intervals = iteration == 0;
      const Pass p1 = servePass(*s->one, jobs, po);
      if (!reference) {
        reference = p1;
        countStream(r, p1);
      }
      checkPass(r, o, p1, *reference, jobs.size());
      for (std::size_t j = 0; j < p1.jobTimes.size(); ++j)
        tr.add("serve.job", Layer::kEngine, j, tr.toNs(p1.jobTimes[j].first),
               tr.toNs(p1.jobTimes[j].second), pass.index());
      rate1.add(static_cast<double>(jobs.size()) / p1.seconds);
      addLatencies(lat1, p1);
    }
    if (iteration == 0) {
      SpanScope span(&tr, "bench.replay", Layer::kBench);
      t = replay(tr, *s->one, jobs, reference->errorRecord, r);
    }
    {
      SpanScope pass(&tr, "engine.pass_1w_telemetry_off", Layer::kEngine,
                     iteration);
      dsn::obs::setEnabled(false);
      PassOptions po;
      po.latency = true;
      const Pass p = servePass(*s->one, jobs, po);
      dsn::obs::setEnabled(true);
      addLatencies(latOff, p);
      r.check("failures_deterministic",
              p.failures() == reference->failures(),
              "failure count changed with telemetry off");
    }
    {
      SpanScope pass(&tr, "engine.pass_1w_timing_tree", Layer::kEngine,
                     iteration);
      const Pass p = servePass(*s->timed, jobs, PassOptions{});
      rateTimed.add(static_cast<double>(jobs.size()) / p.seconds);
      r.check("failures_deterministic",
              p.failures() == reference->failures(),
              "failure count changed with the timing tree on");
    }
    {
      SpanScope pass(&tr, "engine.pass_nproc", Layer::kEngine, iteration);
      PassOptions po;
      if (o.inject == "corrupt-record") po.corruptAt = jobs.size() / 2;
      const Pass pn = servePass(*s->many, jobs, po);
      checkPass(r, o, pn, *reference, jobs.size());
      rateN.add(static_cast<double>(jobs.size()) / pn.seconds);
    }
    if (secondsSince(start) >= o.seconds) break;
  }
  tr.close(root);
  r.digest = reference->digest;

  const double jobs_ = static_cast<double>(t.jobs);
  const PhaseTotals& ph = t.phases;
  const auto perJob = [&](std::int64_t ns, double unit) {
    return t.jobs == 0 ? 0.0 : static_cast<double>(ns) / unit / jobs_;
  };
  r.metric("graph.deploy_ms", perCall(t.deployNs, t.builds, 1e6), "ms");
  r.metric("graph.unit_disk_ms", perCall(t.unitDiskNs, t.builds, 1e6), "ms");
  r.metric("graph.csr_ms", perCall(t.csrNs, t.builds, 1e6), "ms");
  r.metric("cluster.build_ms",
           perCall(std::max<std::int64_t>(0, ph.cnetBuildNs - t.unitDiskNs),
                   t.builds, 1e6),
           "ms");
  r.metric("cluster.move_in_us", perCall(ph.moveInNs, ph.moveInCalls, 1e3),
           "us");
  r.metric("cluster.validate_us",
           perCall(t.validateNs, t.validateProbes, 1e3), "us");
  r.metric("cluster.validations",
           t.jobs == 0 ? 0.0 : static_cast<double>(t.validations) / jobs_,
           "count/job");
  r.metric("cluster.mutation_ms", perJob(ph.mutationNs, 1e6), "ms");
  r.metric("cluster.repair_ms", perCall(ph.repairNs, ph.repairCalls, 1e6),
           "ms");
  r.metric("radio.sim_ms", perJob(ph.simNs, 1e6), "ms");
  r.metric("radio.ns_per_round",
           t.counts.rounds == 0 ? 0.0
                                : static_cast<double>(ph.simNs) /
                                      static_cast<double>(t.counts.rounds),
           "ns");
  addRadioCounts(r, t.counts);
  r.metric("radio.sharded_speedup", 0.0, "x");
  r.metric("broadcast.setup_ms",
           perCall(ph.broadcastNs - ph.broadcastSimNs, ph.broadcastCalls, 1e6),
           "ms");
  r.metric("broadcast.cluster_us",
           perCall(ph.clusterSchemeNs, ph.clusterSchemeCalls, 1e3), "us");
  r.metric("broadcast.rival_us", perCall(ph.rivalNs, ph.rivalCalls, 1e3),
           "us");
  r.metric("broadcast.reliable_ms",
           perCall(ph.reliableNs, ph.reliableCalls, 1e6), "ms");
  r.metric("broadcast.gather_ms", perCall(t.gatherNs, t.gatherProbes, 1e6),
           "ms");
  r.metric("core.network_build_ms", perCall(t.buildNs, t.builds, 1e6), "ms");
  r.metric("core.scenario_parse_us", perJob(t.scenarioParseNs, 1e3), "us");
  r.metric("core.scenario_self_us", perJob(t.scenarioSelfNs, 1e3), "us");

  const auto& cache = reference->report.cache;
  // Paired per-job differences, summarised by their median: the job mix
  // cancels out, and one slow outlier cannot move the figure.
  const auto passes = static_cast<double>(rate1.count());
  dsn::Samples engineSelf, telemetry;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const double oneUs = lat1[j] * 1e3 / passes;
    if (j < t.acquireAndScenarioUs.size())
      engineSelf.add(oneUs - t.acquireAndScenarioUs[j]);
    telemetry.add(oneUs - latOff[j] * 1e3 / passes);
  }
  r.metric("serve.job_parse_us", perJob(t.jobParseNs, 1e3), "us");
  r.metric("serve.lease_us", perCall(t.leaseNs, t.leases, 1e3), "us");
  r.metric("serve.cache_hit_rate", cache.hitRate, "ratio");
  r.metric("serve.cache_misses", static_cast<double>(cache.misses), "count");
  r.metric("serve.cache_evictions", static_cast<double>(cache.evictions),
           "count");
  r.metric("serve.engine_self_us", engineSelf.median(), "us");
  r.metric("serve.record_bytes",
           static_cast<double>(reference->recordBytes) /
               static_cast<double>(std::max<std::size_t>(1, jobs.size())),
           "bytes");
  r.metric("serve.scaling", rateN.median() / rate1.median(), "x");
  r.metric("obs.telemetry_us", telemetry.median(), "us");
  r.metric("obs.trace_overhead", rateTimed.median() / rate1.median(),
           "ratio");
  r.notes.push_back("replay: " + std::to_string(t.jobs) + " jobs, " +
                    std::to_string(t.builds) + " private builds, " +
                    std::to_string(t.leases) + " leases, " +
                    std::to_string(t.failures) + " failed");
  addLayerTable(r, tr, root);
  if (!o.spansOut.empty())
    r.check("spans_written", tr.write(o.spansOut), o.spansOut);
  return r;
}

}  // namespace

Result runServe(const Options& o) {
  return o.trace ? runTraced(o) : runUntraced(o);
}

}  // namespace perfbench
