// The store's headline guarantee: a training run interrupted at a run
// boundary and resumed from its checkpoint is BIT-IDENTICAL to the
// uninterrupted run — same traces, energies, counters, reliability figures
// and per-epoch RL records — through every wiring layer (direct manager
// calls, RunnerConfig hooks, and the SweepRunner policy-zoo path at any
// --jobs count).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/manager_checkpoint.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"
#include "exec/sweep.hpp"
#include "store/policy_checkpoint.hpp"
#include "workload/app_spec.hpp"

namespace rltherm::store {
namespace {

workload::AppSpec tinyApp(int iterations = 60) {
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
  config.maxSimTime = 600.0;
  return config;
}

core::ThermalManagerConfig fastManager() {
  core::ThermalManagerConfig config;
  config.samplingInterval = 0.5;
  config.decisionEpoch = 2.0;
  return config;
}

/// EXPECT_EQ on doubles on purpose: "equivalent" resume is not the claim,
/// bit-identical is.
void expectSameRun(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.coreTraces, b.coreTraces);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.timedOut, b.timedOut);
  EXPECT_EQ(a.dynamicEnergy, b.dynamicEnergy);
  EXPECT_EQ(a.staticEnergy, b.staticEnergy);
  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.counters.cycles, b.counters.cycles);
  EXPECT_EQ(a.counters.cacheMisses, b.counters.cacheMisses);
  EXPECT_EQ(a.reliability.averageTemp, b.reliability.averageTemp);
  EXPECT_EQ(a.reliability.peakTemp, b.reliability.peakTemp);
  EXPECT_EQ(a.reliability.cyclingMttfYears, b.reliability.cyclingMttfYears);
  EXPECT_EQ(a.reliability.agingMttfYears, b.reliability.agingMttfYears);
}

void expectSameManagerState(const core::ThermalManager& a,
                            const core::ThermalManager& b) {
  EXPECT_EQ(encodeImage(encodePolicyCheckpoint(a.captureCheckpoint())),
            encodeImage(encodePolicyCheckpoint(b.captureCheckpoint())));
}

TEST(ResumeDeterminismTest, InterruptedRunEqualsUninterruptedBitwise) {
  const core::PolicyRunner runner(fastRunner());
  const workload::Scenario pass1 = workload::Scenario::of({tinyApp()});
  const workload::Scenario pass2 = workload::Scenario::of({tinyApp(80)});

  // Uninterrupted: one manager lives through both runs.
  core::ThermalManager continuous(fastManager(), core::ActionSpace::standard(4));
  (void)runner.run(pass1, continuous);
  const core::RunResult expected = runner.run(pass2, continuous);

  // Interrupted: train, checkpoint, REBUILD the manager from scratch, resume.
  const std::string path = testing::TempDir() + "resume_interrupted.ckpt";
  core::ThermalManager first(fastManager(), core::ActionSpace::standard(4));
  (void)runner.run(pass1, first);
  first.saveCheckpoint(path);

  core::ThermalManager resumed(fastManager(), core::ActionSpace::standard(4));
  resumed.loadCheckpoint(path);
  const core::RunResult actual = runner.run(pass2, resumed);

  expectSameRun(expected, actual);
  expectSameManagerState(continuous, resumed);
  ASSERT_EQ(resumed.epochCount(), continuous.epochCount());
  for (std::size_t i = 0; i < continuous.epochCount(); ++i) {
    EXPECT_EQ(resumed.epochLog()[i].action, continuous.epochLog()[i].action)
        << "epoch " << i;
    EXPECT_EQ(resumed.epochLog()[i].reward, continuous.epochLog()[i].reward)
        << "epoch " << i;
    EXPECT_EQ(resumed.epochLog()[i].alpha, continuous.epochLog()[i].alpha)
        << "epoch " << i;
  }
  std::filesystem::remove(path);
}

TEST(ResumeDeterminismTest, RunnerConfigHooksMatchDirectCalls) {
  const workload::Scenario pass1 = workload::Scenario::of({tinyApp()});
  const workload::Scenario pass2 = workload::Scenario::of({tinyApp(80)});
  const std::string path = testing::TempDir() + "resume_hooks.ckpt";

  // Reference: direct save/load calls around two plain runs.
  const core::PolicyRunner plain(fastRunner());
  core::ThermalManager reference(fastManager(), core::ActionSpace::standard(4));
  (void)plain.run(pass1, reference);
  const core::RunResult expected = plain.run(pass2, reference);

  // Hooked: saveCheckpointAtEnd on the first runner, resumeCheckpoint on the
  // second; the policy objects are throwaways rebuilt per phase.
  core::RunnerConfig saveConfig = fastRunner();
  saveConfig.saveCheckpointAtEnd = path;
  core::ThermalManager trainee(fastManager(), core::ActionSpace::standard(4));
  (void)core::PolicyRunner(saveConfig).run(pass1, trainee);

  core::RunnerConfig resumeConfig = fastRunner();
  resumeConfig.resumeCheckpoint = path;
  core::ThermalManager resumed(fastManager(), core::ActionSpace::standard(4));
  const core::RunResult actual = core::PolicyRunner(resumeConfig).run(pass2, resumed);

  expectSameRun(expected, actual);
  expectSameManagerState(reference, resumed);
  std::filesystem::remove(path);
}

/// The policy-zoo path: one training spec checkpoints, several evaluation
/// specs resume it. The whole sweep must be bit-identical at any lane count
/// and must equal the direct (serial, no-store) execution.
TEST(ResumeDeterminismTest, SweepPolicyZooIsBitIdenticalAtAnyJobsCount) {
  const std::string path = testing::TempDir() + "resume_zoo.ckpt";
  const workload::Scenario trainScenario = workload::Scenario::of({tinyApp()});
  const std::vector<int> evalIterations = {50, 70, 90};

  const auto buildSpecs = [&] {
    std::vector<exec::RunSpec> specs;
    exec::RunSpec train;
    train.label = "train";
    train.scenario = trainScenario;
    train.runner = fastRunner();
    train.policy = [](std::uint64_t) {
      return std::make_unique<core::ThermalManager>(fastManager(),
                                                    core::ActionSpace::standard(4));
    };
    train.saveCheckpointAs = path;
    specs.push_back(std::move(train));
    for (const int iterations : evalIterations) {
      exec::RunSpec eval;
      eval.label = "eval" + std::to_string(iterations);
      eval.scenario = workload::Scenario::of({tinyApp(iterations)});
      eval.freezeAfterTrain = true;
      eval.runner = fastRunner();
      eval.policy = [](std::uint64_t) {
        return std::make_unique<core::ThermalManager>(fastManager(),
                                                      core::ActionSpace::standard(4));
      };
      eval.resumeFrom = path;
      specs.push_back(std::move(eval));
    }
    return specs;
  };

  // The evaluation specs read the checkpoint the training spec writes, so
  // the zoo runs as two sweeps (train, then evals) — the pattern
  // bench_policy_zoo.cpp uses. Within each sweep all runs are independent.
  const auto runZoo = [&](std::size_t jobs) {
    std::vector<exec::RunSpec> specs = buildSpecs();
    const std::vector<exec::RunSpec> trainSpecs(specs.begin(), specs.begin() + 1);
    const std::vector<exec::RunSpec> evalSpecs(specs.begin() + 1, specs.end());
    (void)exec::SweepRunner({.jobs = jobs}).run(trainSpecs);
    return exec::SweepRunner({.jobs = jobs}).run(evalSpecs);
  };

  const exec::SweepResult serial = runZoo(1);
  const exec::SweepResult two = runZoo(2);
  const exec::SweepResult eight = runZoo(8);

  ASSERT_EQ(serial.runs.size(), evalIterations.size());
  for (const exec::SweepResult* parallel : {&two, &eight}) {
    ASSERT_EQ(parallel->runs.size(), serial.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      expectSameRun(serial.runs[i].result, parallel->runs[i].result);
      EXPECT_EQ(parallel->runs[i].counters, serial.runs[i].counters);
      ASSERT_EQ(parallel->runs[i].events.size(), serial.runs[i].events.size());
      for (std::size_t e = 0; e < serial.runs[i].events.size(); ++e) {
        EXPECT_EQ(parallel->runs[i].events[e].name, serial.runs[i].events[e].name)
            << "run " << i << " event " << e;
      }
      const auto* a =
          dynamic_cast<const core::ThermalManager*>(serial.runs[i].policy.get());
      const auto* b =
          dynamic_cast<const core::ThermalManager*>(parallel->runs[i].policy.get());
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      expectSameManagerState(*a, *b);
    }
    EXPECT_EQ(parallel->counters, serial.counters);
  }

  // And the zoo equals a direct serial execution without the sweep engine.
  const core::PolicyRunner runner(fastRunner());
  core::ThermalManager direct(fastManager(), core::ActionSpace::standard(4));
  (void)runner.run(trainScenario, direct);
  direct.saveCheckpoint(path);
  for (std::size_t i = 0; i < evalIterations.size(); ++i) {
    core::ThermalManager evaluator(fastManager(), core::ActionSpace::standard(4));
    evaluator.loadCheckpoint(path);
    evaluator.freeze();
    const core::RunResult expected =
        runner.run(workload::Scenario::of({tinyApp(evalIterations[i])}), evaluator);
    expectSameRun(expected, serial.runs[i].result);
  }
  std::filesystem::remove(path);
}

/// Same interrupted-equals-uninterrupted claim, but on a 66-node
/// grid-thermal machine (4x4 cells per core) with the exp-operator cache
/// live, so every prepare after the first adopts a shared operator. A
/// checkpoint taken there must resume bit-exactly: the cached operator is
/// part of the machine, not of the policy state, so it must not leak into
/// (or diverge after) resume.
TEST(ResumeDeterminismTest, GridMachineResumesBitExactly) {
  thermal::ExpOperatorCache& cache = thermal::ExpOperatorCache::instance();
  cache.clear();

  core::RunnerConfig gridRunner = fastRunner();
  gridRunner.maxSimTime = 200.0;
  gridRunner.machine.thermalCellsPerCoreSide = 4;
  const core::PolicyRunner runner(gridRunner);
  const workload::Scenario pass1 = workload::Scenario::of({tinyApp(30)});
  const workload::Scenario pass2 = workload::Scenario::of({tinyApp(40)});

  core::ThermalManager continuous(fastManager(), core::ActionSpace::standard(4));
  (void)runner.run(pass1, continuous);
  const core::RunResult expected = runner.run(pass2, continuous);

  const std::string path = testing::TempDir() + "resume_grid.ckpt";
  core::ThermalManager first(fastManager(), core::ActionSpace::standard(4));
  (void)runner.run(pass1, first);
  first.saveCheckpoint(path);

  core::ThermalManager resumed(fastManager(), core::ActionSpace::standard(4));
  resumed.loadCheckpoint(path);
  const core::RunResult actual = runner.run(pass2, resumed);

  expectSameRun(expected, actual);
  expectSameManagerState(continuous, resumed);
  // Every run built an identical machine, so all prepares share ONE
  // fingerprint: exactly one cold miss, cache hits ever after.
  const thermal::ExpOpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 3u);
  std::filesystem::remove(path);
}

TEST(ResumeDeterminismTest, FrozenEvalDoesNotMutateTheCheckpointState) {
  const core::PolicyRunner runner(fastRunner());
  core::ThermalManager trained(fastManager(), core::ActionSpace::standard(4));
  (void)runner.run(workload::Scenario::of({tinyApp()}), trained);
  const std::string path = testing::TempDir() + "resume_frozen.ckpt";
  trained.saveCheckpoint(path);

  core::ThermalManager a(fastManager(), core::ActionSpace::standard(4));
  a.loadCheckpoint(path);
  a.freeze();
  core::ThermalManager b(fastManager(), core::ActionSpace::standard(4));
  b.loadCheckpoint(path);
  b.freeze();
  const core::RunResult first = runner.run(workload::Scenario::of({tinyApp(80)}), a);
  const core::RunResult second = runner.run(workload::Scenario::of({tinyApp(80)}), b);
  // Two frozen evaluations from one checkpoint are interchangeable — the
  // whole premise of the train-once/evaluate-many workflow.
  expectSameRun(first, second);
  const auto qBefore = trained.captureCheckpoint().qValues;
  EXPECT_EQ(a.captureCheckpoint().qValues, qBefore);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rltherm::store
