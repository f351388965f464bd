// FleetService: multi-tenant manager-as-a-server.
//
// The seed benches run one closed-loop simulation per process invocation; a
// policy-zoo deployment wants MANY independent tenants (machine + workload +
// thermal manager) hosted behind one long-lived service. The fleet service
// owns:
//
//  - a tenant table — each tenant is a fully independent simulation with its
//    own sensor seed: the runner's core::ControlLoop (without ground-truth
//    tracing), advanced in fixed simulated-time slices. A tenant's
//    epoch trace is BIT-IDENTICAL whether it runs alone or interleaved with
//    thousands of other tenants, at any jobs count (tested in
//    tests/serve/fleet_determinism_test.cpp);
//  - a warm-start policy cache (warm_cache.hpp) keyed by the store's config
//    fingerprint: the FIRST tenant of a configuration family trains a policy
//    on a CANONICAL calibration workload fixed by the service config, and
//    every tenant of the family — including the first — clones the frozen
//    checkpoint from the cached buffer. Because the cached artifact depends
//    only on the fingerprint (never on the admitting tenant's seed or
//    workload), admission ORDER cannot leak between tenants;
//  - batched decision epochs — one runPass() drains the admission queue and
//    then advances every active tenant one slice across the exec thread
//    pool. Tenant slices run under a PRIVATE EMPTY observability session on
//    the worker (uniformly silent at any jobs count); the service emits its
//    own serve.* telemetry from the service thread afterwards;
//  - a bounded admission queue with explicit back-pressure: submit() rejects
//    with a reason (queue full, table full, duplicate, invalid config)
//    instead of growing without bound.
//
// The service holds ONE exec::ThreadPool for its whole lifetime; the pool's
// destructor asserts idle-drain, so a shutdown cannot leak queued work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/thermal_manager.hpp"
#include "exec/thread_pool.hpp"
#include "serve/warm_cache.hpp"

namespace rltherm::serve {

struct FleetServiceConfig {
  std::size_t jobs = 0;            ///< execution lanes; 0 = hardware threads
  std::size_t maxTenants = 4096;   ///< active + queued hard cap
  std::size_t admitQueueDepth = 64;
  std::size_t cacheCapacity = 8;   ///< warm-start cache entries (config families)

  /// Simulated seconds each active tenant advances per runPass().
  Seconds sliceSeconds = 40.0;
  /// Per-tenant safety stop: a tenant reaching this simulated time is marked
  /// done even if its scenario never completes.
  Seconds maxTenantSimTime = 20000.0;

  /// Canonical calibration workload for warm-start training. Fixed by the
  /// SERVICE, never by the admitting tenant, so the cached policy for a
  /// fingerprint is the same regardless of which tenant arrived first.
  std::string trainFamily = "tachyon";
  int trainDataset = 1;
  std::uint64_t trainSeed = 42;
  Seconds trainSimTime = 2000.0;
};

/// One tenant admission. `gamma` / `stressBins` / `agingBins` are config-
/// fingerprinted manager knobs — tenants sharing them form a configuration
/// family and share one warm-start cache entry. `seed` and the workload are
/// NOT fingerprinted (see the fingerprint rule in store/policy_checkpoint
/// .hpp), so tenants of a family may differ freely in both.
struct AdmitRequest {
  std::string tenant;
  std::string family = "tachyon";  ///< workload family (workload::makeApp)
  int dataset = 1;
  std::uint64_t seed = 42;         ///< sensor + manager RNG seed
  double gamma = 0.75;
  std::size_t stressBins = 4;
  std::size_t agingBins = 4;
};

/// Back-pressure surface: an admission either enters the bounded queue or is
/// rejected with a reason. There is no silent drop and no unbounded growth.
struct AdmitOutcome {
  bool accepted = false;
  std::string reason;  ///< empty when accepted
};

/// Snapshot of one tenant, as returned by query().
struct TenantStatus {
  std::string tenant;
  std::string family;
  int dataset = 0;
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;
  bool warmStart = false;  ///< admission hit the cache (no training run)
  bool done = false;
  Seconds simTime = 0.0;
  std::size_t decisions = 0;  ///< epochs recorded since admission
  std::size_t samples = 0;
  std::size_t completions = 0;
  Celsius peakTemp = 0.0;
  /// FNV-1a hash over the tenant's own epoch records (everything after the
  /// warm-start prefix) plus sim time and completion count — the compact
  /// bit-identity witness the determinism tests and the smoke gate compare.
  std::uint64_t traceHash = 0;
  /// Wall-clock admit -> first decision epoch; negative until observed.
  double firstDecisionMs = -1.0;
};

/// What one runPass() did.
struct PassReport {
  std::size_t admitted = 0;  ///< drained from the queue this pass
  std::size_t trained = 0;   ///< cache misses that triggered training
  std::size_t advanced = 0;  ///< active tenants stepped one slice
  std::size_t completed = 0; ///< tenants that finished during this pass
};

struct FleetStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t trainings = 0;
  std::uint64_t completed = 0;
  std::uint64_t evictedTenants = 0;
  std::uint64_t passes = 0;
  std::size_t activeTenants = 0;  ///< admitted and not yet evicted
  std::size_t queueDepth = 0;
  double trainMsTotal = 0.0;      ///< wall-clock spent training (cache misses)
  WarmStartCache::Stats cache;
  /// Admit -> first-decision latencies, in observation order.
  std::vector<double> firstDecisionMs;
};

/// Lowercase hex rendering of a config fingerprint. Fingerprints are 64-bit
/// and JSON numbers are only exact to 2^53, so every protocol/report surface
/// carries them as hex strings.
[[nodiscard]] std::string fingerprintHex(std::uint64_t fingerprint);

/// The TenantStatus::traceHash recipe (epoch records from index `from` on,
/// then sim time, completions and samples), for hashing a run outside the
/// fleet the same way.
[[nodiscard]] std::uint64_t epochTraceHash(const std::vector<core::EpochRecord>& log,
                                           std::size_t from, Seconds simTime,
                                           std::size_t completions, std::size_t samples);

class FleetService {
 public:
  explicit FleetService(FleetServiceConfig config = {});
  ~FleetService();
  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Enqueues an admission (bounded; see AdmitOutcome). The tenant becomes
  /// live on the next runPass().
  [[nodiscard]] AdmitOutcome submit(const AdmitRequest& request);

  /// One batched decision epoch: drain the admission queue (training on
  /// cache miss), then advance every active tenant one slice across the
  /// thread pool, then emit serve.* telemetry from the service thread.
  PassReport runPass();

  /// Convenience driver: passes until the queue is empty and every tenant is
  /// done (or `maxPasses` is hit). Returns the number of passes run.
  std::size_t runUntilIdle(std::size_t maxPasses = 100000);

  [[nodiscard]] std::optional<TenantStatus> query(const std::string& tenant) const;
  [[nodiscard]] std::vector<std::string> tenantNames() const;

  /// Removes a tenant (any state). False when unknown.
  bool evictTenant(const std::string& tenant);
  /// Drops one warm-start cache entry. False when not cached.
  bool evictCacheEntry(std::uint64_t fingerprint);

  [[nodiscard]] FleetStats stats();

  [[nodiscard]] WarmStartCache& cache() noexcept { return cache_; }
  [[nodiscard]] exec::ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] const FleetServiceConfig& config() const noexcept { return config_; }

 private:
  struct Tenant;
  struct QueuedAdmit {
    AdmitRequest request;
    std::uint64_t submitNs = 0;
  };

  [[nodiscard]] std::vector<std::uint8_t> trainFamilyPolicy(const AdmitRequest& request);
  void processAdmission(const QueuedAdmit& queued, PassReport& report);
  [[nodiscard]] AdmitOutcome reject(const AdmitRequest& request, std::string reason);
  void publishGauges();
  [[nodiscard]] std::size_t activeTenantCount() const;  ///< admitted, not done

  FleetServiceConfig config_;
  exec::ThreadPool pool_;  ///< long-lived; destructor asserts idle-drain
  WarmStartCache cache_;
  std::deque<QueuedAdmit> queue_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;  ///< name-ordered
  FleetStats stats_;
};

}  // namespace rltherm::serve
