// FleetService contract tests. The load-bearing one pins the fleet's
// bit-identity guarantee: a tenant's epoch trace hash is IDENTICAL whether it
// runs alone or interleaved with 100 tenants, at any jobs count. The rest
// cover the warm-start cache (one training per config family, eviction forces
// a retrain, LRU capacity), bounded-admission back-pressure with golden
// reasons, slice invariance, and the long-lived pool's idle-drain contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/action_space.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "serve/fleet.hpp"
#include "store/policy_checkpoint.hpp"
#include "workload/app_spec.hpp"

namespace rltherm::serve {
namespace {

/// Short training window so cache misses stay cheap; everything else default.
FleetServiceConfig fastConfig(std::size_t jobs) {
  FleetServiceConfig config;
  config.jobs = jobs;
  config.trainSimTime = 120.0;
  config.admitQueueDepth = 128;
  return config;
}

/// The tenant whose trace the determinism test pins.
AdmitRequest probeRequest() {
  AdmitRequest request;
  request.tenant = "probe";
  request.family = "mpeg_enc";
  request.dataset = 2;
  request.seed = 7;
  return request;
}

/// 99 companions across two config families, three workload families, and
/// distinct seeds — the interleaving noise the probe must be immune to.
std::vector<AdmitRequest> fillerRequests() {
  const std::vector<std::string> families = {"tachyon", "mpeg_dec", "face_rec"};
  std::vector<AdmitRequest> requests;
  for (std::size_t i = 0; i < 99; ++i) {
    AdmitRequest request;
    request.tenant = "filler-" + std::to_string(i);
    request.family = families[i % families.size()];
    request.dataset = 1 + static_cast<int>(i % 3);
    request.seed = 1000 + i;
    request.gamma = (i % 2 == 0) ? 0.75 : 0.6;
    requests.push_back(request);
  }
  return requests;
}

std::uint64_t probeHashAfterPasses(FleetService& service, std::size_t passes) {
  for (std::size_t p = 0; p < passes; ++p) (void)service.runPass();
  const auto status = service.query("probe");
  EXPECT_TRUE(status.has_value());
  return status.has_value() ? status->traceHash : 0;
}

TEST(FleetDeterminismTest, ProbeTraceIsBitIdenticalAloneVsInterleavedAtAnyJobs) {
  // Reference: the probe alone, fully serial.
  FleetService alone(fastConfig(1));
  ASSERT_TRUE(alone.submit(probeRequest()).accepted);
  const std::uint64_t reference = probeHashAfterPasses(alone, 3);
  {
    const auto status = alone.query("probe");
    ASSERT_TRUE(status.has_value());
    // Vacuity guard: the pinned hash covers real decisions, not an idle run.
    EXPECT_GE(status->decisions, 2u);
    EXPECT_GT(status->samples, 0u);
  }

  // Interleaved with 99 companions, at one lane and at four.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    FleetService fleet(fastConfig(jobs));
    ASSERT_TRUE(fleet.submit(probeRequest()).accepted);
    for (const AdmitRequest& filler : fillerRequests()) {
      ASSERT_TRUE(fleet.submit(filler).accepted) << filler.tenant;
    }
    EXPECT_EQ(probeHashAfterPasses(fleet, 3), reference) << "jobs=" << jobs;
    EXPECT_TRUE(fleet.pool().idle());
  }
}

TEST(FleetDeterminismTest, SliceSizeDoesNotChangeTheTrace) {
  // 3 x 40 s slices == 1 x 120 s slice, bit for bit: a slice boundary only
  // pauses the loop, it never reorders a tick or a sample.
  FleetService fine(fastConfig(1));
  ASSERT_TRUE(fine.submit(probeRequest()).accepted);
  const std::uint64_t sliced = probeHashAfterPasses(fine, 3);

  FleetServiceConfig coarseConfig = fastConfig(1);
  coarseConfig.sliceSeconds = 120.0;
  FleetService coarse(coarseConfig);
  ASSERT_TRUE(coarse.submit(probeRequest()).accepted);
  EXPECT_EQ(probeHashAfterPasses(coarse, 1), sliced);
}

// A tenant is the runner's closed loop, not a look-alike: restoring the
// tenant's cached family checkpoint into a fresh manager and driving it
// through PolicyRunner::run on the same spec reproduces the tenant's epoch
// log, sim time, completions and sample count bit for bit. Covered once with
// the safety stop and once with the scenario running to completion.
TEST(FleetDeterminismTest, TenantEqualsAStandalonePolicyRunnerRun) {
  for (const Seconds maxTenantSimTime : {300.0, 1000.0}) {
    FleetServiceConfig config = fastConfig(1);
    config.maxTenantSimTime = maxTenantSimTime;
    FleetService service(config);
    AdmitRequest request = probeRequest();
    request.family = "tachyon";  // 603 s: completes under the larger stop
    request.dataset = 1;
    ASSERT_TRUE(service.submit(request).accepted);
    (void)service.runUntilIdle();
    const auto tenant = service.query(request.tenant);
    ASSERT_TRUE(tenant.has_value());
    ASSERT_TRUE(tenant->done);

    const auto cached = service.cache().find(tenant->fingerprint);
    ASSERT_TRUE(cached.has_value());
    core::ThermalManagerConfig managerConfig;
    managerConfig.gamma = request.gamma;
    managerConfig.stressBins = request.stressBins;
    managerConfig.agingBins = request.agingBins;
    managerConfig.seed = request.seed;
    core::ThermalManager manager(managerConfig, core::ActionSpace::standard(4));
    manager.restoreFromCheckpoint(
        store::loadPolicyCheckpointFromBuffer(*cached, "cached family checkpoint"));
    const std::size_t prefix = manager.epochCount();

    core::RunnerConfig runnerConfig;
    runnerConfig.machine.sensorSeed = request.seed;
    runnerConfig.maxSimTime = maxTenantSimTime;
    obs::MetricsRegistry metrics;
    obs::Session session;
    session.metrics = &metrics;
    const obs::ScopedSession guard(session);
    const core::RunResult result = core::PolicyRunner(runnerConfig).run(
        workload::Scenario::of({workload::makeApp(request.family, request.dataset)}),
        manager);
    const std::size_t samples = metrics.counter("runner.samples.deliver").value();

    EXPECT_EQ(result.timedOut, maxTenantSimTime < 600.0);
    EXPECT_EQ(result.duration, tenant->simTime);
    EXPECT_EQ(result.completions.size(), tenant->completions);
    EXPECT_EQ(samples, tenant->samples);
    EXPECT_EQ(manager.epochCount() - prefix, tenant->decisions);
    EXPECT_EQ(epochTraceHash(manager.epochLog(), prefix, result.duration,
                             result.completions.size(), samples),
              tenant->traceHash)
        << "maxTenantSimTime=" << maxTenantSimTime;
  }
}

TEST(FleetDeterminismTest, OneTrainingServesAWholeConfigFamily) {
  FleetService service(fastConfig(1));
  AdmitRequest first = probeRequest();
  AdmitRequest second = probeRequest();
  second.tenant = "second";
  second.family = "tachyon";  // workload is NOT fingerprinted
  second.seed = 99;           // neither is the seed
  AdmitRequest third = probeRequest();
  third.tenant = "third";
  third.dataset = 1;
  ASSERT_TRUE(service.submit(first).accepted);
  ASSERT_TRUE(service.submit(second).accepted);
  ASSERT_TRUE(service.submit(third).accepted);
  (void)service.runPass();

  const FleetStats stats = service.stats();
  EXPECT_EQ(stats.trainings, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.admitted, 3u);

  // FIFO drain: the first admission paid the miss, the others cloned.
  EXPECT_FALSE(service.query("probe")->warmStart);
  EXPECT_TRUE(service.query("second")->warmStart);
  EXPECT_TRUE(service.query("third")->warmStart);
  EXPECT_EQ(service.query("probe")->fingerprint, service.query("second")->fingerprint);
}

TEST(FleetDeterminismTest, CacheEvictionForcesARetrain) {
  FleetService service(fastConfig(1));
  ASSERT_TRUE(service.submit(probeRequest()).accepted);
  (void)service.runPass();
  const std::uint64_t fingerprint = service.query("probe")->fingerprint;
  EXPECT_EQ(service.stats().trainings, 1u);

  EXPECT_TRUE(service.evictCacheEntry(fingerprint));
  EXPECT_FALSE(service.evictCacheEntry(fingerprint));  // already gone
  EXPECT_EQ(service.stats().cache.entries, 0u);

  AdmitRequest again = probeRequest();
  again.tenant = "again";
  ASSERT_TRUE(service.submit(again).accepted);
  (void)service.runPass();
  EXPECT_EQ(service.stats().trainings, 2u);
  EXPECT_FALSE(service.query("again")->warmStart);
}

TEST(FleetDeterminismTest, CacheCapacityEvictsLeastRecentlyUsed) {
  FleetServiceConfig config = fastConfig(1);
  config.cacheCapacity = 1;
  FleetService service(config);
  AdmitRequest low = probeRequest();
  AdmitRequest high = probeRequest();
  high.tenant = "high";
  high.gamma = 0.9;  // second config family
  ASSERT_TRUE(service.submit(low).accepted);
  ASSERT_TRUE(service.submit(high).accepted);
  (void)service.runPass();

  const FleetStats stats = service.stats();
  EXPECT_EQ(stats.trainings, 2u);
  EXPECT_EQ(stats.cache.evictions, 1u);  // low's entry fell out
  EXPECT_EQ(stats.cache.entries, 1u);
}

TEST(FleetDeterminismTest, BackPressureRejectsWithGoldenReasons) {
  FleetServiceConfig config = fastConfig(1);
  config.admitQueueDepth = 2;
  config.maxTenants = 3;
  FleetService service(config);

  AdmitRequest request = probeRequest();
  request.tenant = "a";
  ASSERT_TRUE(service.submit(request).accepted);
  request.tenant = "b";
  ASSERT_TRUE(service.submit(request).accepted);
  request.tenant = "c";
  AdmitOutcome outcome = service.submit(request);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, "admission queue is full (depth 2); run a step to drain it");

  (void)service.runPass();  // drains a and b into the table
  ASSERT_TRUE(service.submit(request).accepted);  // c fits: table 2 + queue 1
  request.tenant = "d";
  outcome = service.submit(request);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, "tenant table is full (max 3); evict a tenant first");

  // Evicting frees a slot for the same request.
  EXPECT_TRUE(service.evictTenant("a"));
  EXPECT_FALSE(service.evictTenant("a"));
  ASSERT_TRUE(service.submit(request).accepted);
  EXPECT_EQ(service.stats().rejected, 2u);
}

TEST(FleetDeterminismTest, InvalidAdmissionsAreRejectedWithReasons) {
  FleetService service(fastConfig(1));
  AdmitRequest request = probeRequest();

  request.tenant = "";
  EXPECT_EQ(service.submit(request).reason, "admit requires a non-empty tenant name");

  request = probeRequest();
  ASSERT_TRUE(service.submit(request).accepted);
  EXPECT_EQ(service.submit(request).reason, "tenant 'probe' is already queued");
  (void)service.runPass();
  EXPECT_EQ(service.submit(request).reason, "tenant 'probe' is already admitted");

  request = probeRequest();
  request.tenant = "bad-gamma";
  request.gamma = 0.0;
  EXPECT_EQ(service.submit(request).reason, "gamma must be in (0, 1]");

  request = probeRequest();
  request.tenant = "bad-bins";
  request.stressBins = 1;
  EXPECT_EQ(service.submit(request).reason, "stress/aging bins must be in [2, 64]");

  request = probeRequest();
  request.tenant = "bad-family";
  request.family = "not-a-family";
  EXPECT_FALSE(service.submit(request).accepted);
}

TEST(FleetDeterminismTest, RunUntilIdleFinishesEveryTenantAndDrainsThePool) {
  obs::MetricsRegistry metrics;
  obs::Session session;
  session.metrics = &metrics;
  const obs::ScopedSession guard(session);

  FleetServiceConfig config = fastConfig(2);
  config.maxTenantSimTime = 120.0;  // 3 slices and done
  FleetService service(config);
  AdmitRequest request = probeRequest();
  for (const char* name : {"t0", "t1", "t2"}) {
    request.tenant = name;
    ASSERT_TRUE(service.submit(request).accepted);
  }
  const std::size_t passes = service.runUntilIdle();
  EXPECT_GE(passes, 3u);

  const FleetStats stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.admitted, 3u);
  for (const char* name : {"t0", "t1", "t2"}) {
    const auto status = service.query(name);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->done);
    EXPECT_GE(status->firstDecisionMs, 0.0);
  }
  EXPECT_TRUE(service.pool().idle());
  EXPECT_EQ(service.pool().threadCount(), 2u);

  EXPECT_EQ(metrics.counter("serve.tenant.admit").value(), 3u);
  EXPECT_EQ(metrics.counter("serve.tenant.complete").value(), 3u);
  EXPECT_EQ(metrics.counter("serve.cache.miss").value(), 1u);
  EXPECT_EQ(metrics.counter("serve.cache.hit").value(), 2u);
  EXPECT_EQ(metrics.gauge("serve.tenants.active").value(), 0.0);
  EXPECT_GT(metrics.histogram("serve.admit.latency", 0.0, 5000.0, 100).count(), 0u);
}

}  // namespace
}  // namespace rltherm::serve
