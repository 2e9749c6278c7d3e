// Warm deployment state shared across serve jobs.
//
// The cache maps deploymentFingerprint(NetworkConfig) to a fully built,
// clustered SensorNetwork with its CSR snapshot pre-warmed. Jobs that
// share a deployment lease the same entry: setup cost (deploy + unit-
// disk wiring + cluster self-construction + CSR assembly) is paid once
// per unique topology instead of once per job, which is the entire
// perf story of the serve engine.
//
// Exactness argument (DESIGN.md §17): a leased network may be read by
// any number of jobs concurrently but never mutated — the engine only
// leases for jobs whose scenario is classified read-only
// (scenarioMutatesNetwork == false), and every read path on
// SensorNetwork/Graph is const with the CSR snapshot behind its own
// mutex. Since construction is a pure function of the NetworkConfig
// and the fingerprint covers every config field, a cache hit returns a
// network bit-identical to the one a cold build would have produced —
// so records are byte-identical whether or not the cache was warm.
//
// Telemetry: `serve.cache.{hit,miss,evict}` counts lookups and LRU
// evictions; `serve.csr.{hit,miss}` counts leases whose CSR snapshot
// was still fresh (a miss means someone silently rebuilt or mutated —
// the serve engine test asserts this stays at zero). Both families
// live in the process registry, NOT the per-job sinks, so job records
// stay independent of scheduling order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "core/sensor_network.hpp"
#include "obs/cache_stats.hpp"
#include "obs/timer.hpp"

namespace dsn::serve {

/// RAII scope for deployment-construction telemetry. Builds can run
/// concurrently on job worker threads. MetricsRegistry is safe to share
/// (it registers and looks up instruments under its own mutex and
/// updates them atomically), but the process timing registry keeps one
/// shared nesting cursor, so concurrent builds would interleave their
/// phases into one tree. A build therefore records into
/// scope-local registries via the thread's sink, and the destructor
/// folds them into the process registries under one mutex, following
/// the parallel-sweep merge idiom. Job sinks never see construction
/// costs either way.
class ConstructionTelemetryScope {
 public:
  ConstructionTelemetryScope();
  ~ConstructionTelemetryScope();
  ConstructionTelemetryScope(const ConstructionTelemetryScope&) = delete;
  ConstructionTelemetryScope& operator=(const ConstructionTelemetryScope&) =
      delete;

 private:
  obs::MetricsRegistry metrics_;
  obs::TimingRegistry timing_;
  obs::ScopedMetricsSink metricsSink_;
  obs::ScopedTimingSink timingSink_;
};

class WarmStateCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t csrFresh = 0;
    std::uint64_t csrStale = 0;
    double hitRate = 0.0;
  };

  /// `capacity` bounds the number of resident deployments (0 = bypass:
  /// every lease builds privately — the cold baseline of perf_serve).
  /// Counters register in `registry`, which must outlive the cache.
  explicit WarmStateCache(std::size_t capacity = 64);
  WarmStateCache(std::size_t capacity, obs::MetricsRegistry& registry);

  WarmStateCache(const WarmStateCache&) = delete;
  WarmStateCache& operator=(const WarmStateCache&) = delete;

  /// A refcounted handle on a warm entry. The network stays resident
  /// (never evicted, never destroyed) while any lease is alive.
  class Lease {
   public:
    Lease() = default;
    const SensorNetwork& network() const { return *entry_->net; }
    std::uint64_t fingerprint() const { return entry_->fingerprint; }
    explicit operator bool() const { return entry_ != nullptr; }

   private:
    friend class WarmStateCache;
    struct Entry {
      std::uint64_t fingerprint = 0;
      std::uint64_t lastUse = 0;
      std::once_flag built;
      std::unique_ptr<const SensorNetwork> net;
    };
    explicit Lease(std::shared_ptr<Entry> entry)
        : entry_(std::move(entry)) {}
    std::shared_ptr<Entry> entry_;
  };

  /// Returns a lease on the warm network for `config`, building it on
  /// first use. Concurrent leases of the same fingerprint block on one
  /// build (std::call_once); different fingerprints build in parallel.
  /// Build-time telemetry is redirected to the process registries so
  /// job sinks never observe who happened to build first.
  Lease lease(const NetworkConfig& config);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  Stats stats() const;

 private:
  using Entry = Lease::Entry;

  /// Evicts least-recently-used unleased entries until size <= capacity.
  /// Entries currently on lease are skipped (the map may transiently
  /// exceed capacity under high fingerprint concurrency).
  void evictOverflowLocked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Entry>> entries_;
  std::uint64_t tick_ = 0;
  obs::CacheCounters cacheCounters_;
  obs::CacheCounters csrCounters_;
};

}  // namespace dsn::serve
