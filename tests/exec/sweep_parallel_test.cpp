// SweepRunner determinism contract: the WHOLE aggregate — per-run RunResults,
// MTTF figures, event streams, metric counters, derived seeds — must be
// bit-identical whether the sweep ran on 1, 2 or 8 lanes. Any divergence
// means a job observed shared state, which is exactly the bug class this
// engine is designed out of. Runs under TSan via the `concurrency` label.
#include "exec/sweep.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/baselines.hpp"
#include "core/thermal_manager.hpp"
#include "exec/thread_pool.hpp"
#include "workload/app_spec.hpp"

namespace rltherm::exec {
namespace {

workload::AppSpec tinyApp(int iterations = 40) {
  workload::AppSpec spec;
  spec.name = "tiny";
  spec.family = "tiny";
  spec.threadCount = 4;
  spec.iterations = iterations;
  spec.burstWorkMean = 0.2;
  spec.burstWorkJitter = 0.2;
  spec.burstActivity = 0.9;
  spec.serialWork = 0.1;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.1;
  return spec;
}

core::RunnerConfig fastRunner() {
  core::RunnerConfig config;
  config.analysisWarmup = 0.0;
  config.analysisCooldown = 0.0;
  config.maxSimTime = 400.0;
  return config;
}

/// A mixed grid: governor baselines and learning managers, some with a
/// training prefix, exercising every RunSpec feature at once.
std::vector<RunSpec> mixedSpecs(std::uint64_t seed) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 3; ++i) {
    RunSpec spec;
    spec.label = "linux-" + std::to_string(i);
    spec.scenario = workload::Scenario::of({tinyApp(30 + 10 * i)});
    spec.runner = fastRunner();
    spec.seed = seed;
    spec.policy = [](std::uint64_t) {
      return std::make_unique<core::StaticGovernorPolicy>(
          platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
    };
    specs.push_back(std::move(spec));
  }
  for (int i = 0; i < 3; ++i) {
    RunSpec spec;
    spec.label = "rl-" + std::to_string(i);
    spec.scenario = workload::Scenario::of({tinyApp(40)});
    spec.train = workload::Scenario::of({tinyApp(40), tinyApp(40)});
    spec.freezeAfterTrain = (i % 2 == 0);
    spec.runner = fastRunner();
    spec.seed = seed;
    spec.policy = [](std::uint64_t childSeed) {
      core::ThermalManagerConfig config;
      config.samplingInterval = 0.5;
      config.decisionEpoch = 2.0;
      config.seed = childSeed;
      return std::make_unique<core::ThermalManager>(config,
                                                    core::ActionSpace::standard(4));
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

void expectFieldsEqual(const obs::Event& a, const obs::Event& b) {
  ASSERT_EQ(a.fields.size(), b.fields.size());
  for (std::size_t f = 0; f < a.fields.size(); ++f) {
    EXPECT_EQ(a.fields[f].key, b.fields[f].key);
    EXPECT_EQ(a.fields[f].value, b.fields[f].value);
  }
}

void expectReportsIdentical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const RunReport& ra = a.runs[i];
    const RunReport& rb = b.runs[i];
    EXPECT_EQ(ra.label, rb.label) << "run " << i;
    EXPECT_EQ(ra.seed, rb.seed) << "run " << i;
    // Bit-exact artefacts: EXPECT_EQ on doubles is deliberate (see
    // integration/determinism_test.cpp — last-bit drift means a race).
    EXPECT_EQ(ra.result.coreTraces, rb.result.coreTraces) << "run " << i;
    EXPECT_EQ(ra.result.duration, rb.result.duration) << "run " << i;
    EXPECT_EQ(ra.result.dynamicEnergy, rb.result.dynamicEnergy) << "run " << i;
    EXPECT_EQ(ra.result.reliability.cyclingMttfYears,
              rb.result.reliability.cyclingMttfYears)
        << "run " << i;
    EXPECT_EQ(ra.result.reliability.agingMttfYears,
              rb.result.reliability.agingMttfYears)
        << "run " << i;
    EXPECT_EQ(ra.result.counters.instructions, rb.result.counters.instructions)
        << "run " << i;
    EXPECT_EQ(ra.counters, rb.counters) << "run " << i;
    EXPECT_EQ(ra.gauges, rb.gauges) << "run " << i;
    ASSERT_EQ(ra.events.size(), rb.events.size()) << "run " << i;
    for (std::size_t e = 0; e < ra.events.size(); ++e) {
      EXPECT_EQ(ra.events[e].name, rb.events[e].name) << "run " << i << " event " << e;
      EXPECT_EQ(ra.events[e].simTime, rb.events[e].simTime)
          << "run " << i << " event " << e;
      expectFieldsEqual(ra.events[e], rb.events[e]);
    }
  }
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
}

TEST(SweepParallelTest, AggregateIsBitIdenticalAcrossJobCounts) {
  const SweepResult serial = SweepRunner({.jobs = 1}).run(mixedSpecs(42));
  const SweepResult two = SweepRunner({.jobs = 2}).run(mixedSpecs(42));
  const SweepResult eight = SweepRunner({.jobs = 8}).run(mixedSpecs(42));
  EXPECT_EQ(serial.jobs, 1u);
  expectReportsIdentical(serial, two);
  expectReportsIdentical(serial, eight);
}

/// Specs on a 66-node grid-thermal machine (4x4 cells per core), with the
/// process-wide exp-operator cache live: identical machines across specs
/// make workers race to prepare the same fingerprint, the exact sharing
/// pattern the cache's determinism argument (thermal/expop_cache.hpp) has
/// to survive.
std::vector<RunSpec> gridSpecs(std::uint64_t seed) {
  std::vector<RunSpec> specs;
  for (int i = 0; i < 4; ++i) {
    RunSpec spec;
    spec.label = "grid-" + std::to_string(i);
    spec.scenario = workload::Scenario::of({tinyApp(10)});
    spec.runner = fastRunner();
    spec.runner.maxSimTime = 60.0;
    spec.runner.machine.thermalCellsPerCoreSide = 4;
    spec.seed = seed;
    spec.policy = [](std::uint64_t) {
      return std::make_unique<core::StaticGovernorPolicy>(
          platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(SweepParallelTest, GridMachineWithSharedCacheStaysBitIdentical) {
  thermal::ExpOperatorCache::instance().clear();
  const SweepResult serial = SweepRunner({.jobs = 1}).run(gridSpecs(42));
  // Four identical machines prepared back to back: the serial sweep must
  // have hit the cache after the first cold prepare.
  EXPECT_GE(serial.expopCache.hits, 3u);
  const SweepResult two = SweepRunner({.jobs = 2}).run(gridSpecs(42));
  const SweepResult eight = SweepRunner({.jobs = 8}).run(gridSpecs(42));
  // Every simulated artefact bit-identical at any lane count — the cache
  // diagnostics themselves are documented as outside this guarantee.
  expectReportsIdentical(serial, two);
  expectReportsIdentical(serial, eight);
}

TEST(SweepParallelTest, ZeroSeedPreservesConfiguredMachineSeeds) {
  // seed == 0 must leave the spec's runner config untouched, so a sweep
  // reproduces the serial benches' golden numbers exactly.
  std::vector<RunSpec> specs = mixedSpecs(0);
  const SweepResult sweep = SweepRunner({.jobs = 2}).run(specs);
  core::PolicyRunner runner(fastRunner());
  core::StaticGovernorPolicy policy(
      platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
  const core::RunResult direct =
      runner.run(workload::Scenario::of({tinyApp(30)}), policy);
  EXPECT_EQ(sweep.runs[0].result.coreTraces, direct.coreTraces);
  EXPECT_EQ(sweep.runs[0].result.dynamicEnergy, direct.dynamicEnergy);
}

TEST(SweepParallelTest, NonZeroSeedGivesEveryRunADistinctChildSeed) {
  const SweepResult sweep = SweepRunner({.jobs = 2}).run(mixedSpecs(7));
  std::set<std::uint64_t> seeds;
  for (const RunReport& run : sweep.runs) {
    EXPECT_NE(run.seed, 0u);
    seeds.insert(run.seed);
  }
  EXPECT_EQ(seeds.size(), sweep.runs.size()) << "child seeds must not collide";
}

TEST(SweepParallelTest, TrainedManagerComesBackInTheReport) {
  const SweepResult sweep = SweepRunner({.jobs = 2}).run(mixedSpecs(42));
  const auto* manager =
      dynamic_cast<const core::ThermalManager*>(sweep.runs[3].policy.get());
  ASSERT_NE(manager, nullptr);
  EXPECT_GT(manager->epochCount(), 0u);
}

TEST(SweepChildSeedTest, MatchesSplitMixStreamProperties) {
  // Same (base, index) -> same seed; different index or base -> different.
  EXPECT_EQ(childSeed(1, 0), childSeed(1, 0));
  EXPECT_NE(childSeed(1, 0), childSeed(1, 1));
  EXPECT_NE(childSeed(1, 0), childSeed(2, 0));
  // Never the sentinel "leave seeds alone" value for realistic inputs.
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = childSeed(0xFEEDFACE, i);
    EXPECT_NE(s, 0u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SweepParallelTest, EmptySpecListYieldsEmptyResult) {
  const SweepResult sweep = SweepRunner({.jobs = 4}).run({});
  EXPECT_TRUE(sweep.runs.empty());
  EXPECT_EQ(sweep.counters, (std::map<std::string, std::uint64_t>{}));
}

}  // namespace
}  // namespace rltherm::exec
