// Absolute bit-identity pins for the closed loop.
//
// The determinism suite compares a run with itself; these tests compare
// runs with constants, so a change that moves every run the same way (a
// reordered tick step, a skipped sensor read, a different trace cadence)
// fails here even though it stays self-consistent. Each pin is an FNV-1a
// hash over every number a run reports. The constants are the hashes the
// code produced before the control loop was unified (and, for the two
// package pins, before the lumped and grid thermal packages were merged);
// a refactor must leave them unchanged, in every build type (floating point
// is strict IEEE in all presets, and RLTHERM_CHECKED only adds checks).
//
// To re-pin after a DELIBERATE behaviour change, run this binary with
// --gtest_filter='GoldenPinTest.*', copy the printed hashes into the
// constants below, and declare the change in CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/runner.hpp"
#include "core/safety_supervisor.hpp"
#include "core/thermal_manager.hpp"
#include "fault/plan.hpp"
#include "serve/fleet.hpp"
#include "workload/app_spec.hpp"

#ifndef RLTHERM_REPO_ROOT
#error "RLTHERM_REPO_ROOT must point at the source tree (set in tests/CMakeLists.txt)"
#endif

namespace rltherm::core {
namespace {

class Fnv {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 64; i += 8) {
      h_ ^= (v >> i) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) noexcept { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) noexcept {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    mix(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hash of everything a RunResult reports about the simulated run.
std::uint64_t hashOf(const RunResult& r) {
  Fnv h;
  h.mix(r.duration);
  h.mix(static_cast<std::uint64_t>(r.timedOut ? 1 : 0));
  h.mix(static_cast<std::uint64_t>(r.completions.size()));
  for (const workload::AppCompletion& c : r.completions) {
    h.mix(c.name);
    h.mix(c.startTime);
    h.mix(c.endTime);
    h.mix(static_cast<std::uint64_t>(c.iterations));
  }
  const reliability::ChipReliability& rel = r.reliability;
  for (const reliability::CoreReliability& core : rel.cores) {
    h.mix(core.averageTemp);
    h.mix(core.peakTemp);
    h.mix(core.stress);
    h.mix(core.agingRate);
    h.mix(core.agingMttfYears);
    h.mix(core.cyclingMttfYears);
    h.mix(static_cast<std::uint64_t>(core.cycleCount));
  }
  h.mix(rel.averageTemp);
  h.mix(rel.peakTemp);
  h.mix(rel.agingMttfYears);
  h.mix(rel.cyclingMttfYears);
  h.mix(rel.stress);
  h.mix(r.dynamicEnergy);
  h.mix(r.staticEnergy);
  h.mix(r.averageDynamicPower);
  h.mix(r.averageTotalPower);
  h.mix(r.counters.instructions);
  h.mix(r.counters.cycles);
  h.mix(r.counters.cacheMisses);
  h.mix(r.counters.pageFaults);
  h.mix(r.counters.contextSwitches);
  h.mix(r.counters.migrations);
  h.mix(static_cast<std::uint64_t>(r.coreTraces.size()));
  for (const std::vector<Celsius>& trace : r.coreTraces) {
    h.mix(static_cast<std::uint64_t>(trace.size()));
    for (const Celsius t : trace) h.mix(t);
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v << "ULL";
  return out.str();
}

#define EXPECT_PINNED(actual, golden) \
  EXPECT_EQ(actual, golden) << "re-pin value: " << hex(actual)

std::string repoPath(const std::string& relative) {
  return std::string(RLTHERM_REPO_ROOT) + "/" + relative;
}

RunnerConfig shortRunner(Seconds maxSimTime) {
  RunnerConfig config;
  config.analysisWarmup = 20.0;
  config.analysisCooldown = 5.0;
  config.maxSimTime = maxSimTime;
  return config;
}

ThermalManagerConfig fastManager() {
  ThermalManagerConfig config;
  config.samplingInterval = 0.5;
  config.decisionEpoch = 2.0;
  return config;
}

TEST(GoldenPinTest, LinuxOndemandRun) {
  const PolicyRunner runner(shortRunner(900.0));
  StaticGovernorPolicy linux({platform::GovernorKind::Ondemand, 0.0});
  const RunResult result = runner.run(
      workload::Scenario::of({workload::tachyon(1), workload::mpegDec(1)}), linux);
  EXPECT_FALSE(result.completions.empty());
  EXPECT_PINNED(hashOf(result), 0xe4077f7fb9e37404ULL);
}

TEST(GoldenPinTest, TrainedThenFrozenProposedRun) {
  const PolicyRunner runner(shortRunner(900.0));
  ThermalManager manager(fastManager(), ActionSpace::standard(4));
  (void)runner.run(workload::Scenario::of({workload::tachyon(1), workload::mpegDec(1)}),
                   manager);
  manager.freeze();
  const RunResult result = runner.run(
      workload::Scenario::of({workload::tachyon(2), workload::mpegDec(2)}), manager);
  EXPECT_GT(manager.epochCount(), 100u);
  EXPECT_PINNED(hashOf(result), 0x61a70f1542c3faa2ULL);
}

TEST(GoldenPinTest, ReplicatedRunUnderFaultStorm) {
  RunnerConfig config = shortRunner(700.0);
  config.faults = fault::FaultPlan::fromFile(
      repoPath("scenarios/fault_storm_replication.toml"));
  config.replication = resil::ReplicationPlan{
      .merge = resil::MergePolicy::FirstFinisher,
      .initialDegree = 1,
      .maxDegree = 3,
  };
  ThermalManagerConfig managerConfig = fastManager();
  managerConfig.healthStates = 3;
  managerConfig.eventTriggeredEpochs = true;
  SafetySupervisor policy(
      std::make_unique<ThermalManager>(managerConfig, ActionSpace::resilient(4)),
      SafetySupervisorConfig{});
  const RunResult result = PolicyRunner(config).run(
      workload::Scenario::of({workload::tachyon(1), workload::mpegDec(1)}), policy);
  EXPECT_EQ(result.faultStats.coresRetired, 1u);
  Fnv h;
  h.mix(hashOf(result));
  h.mix(static_cast<std::uint64_t>(result.deliveredIterations));
  h.mix(static_cast<std::uint64_t>(result.taintedIterations));
  h.mix(result.finalDeliveredRatio);
  EXPECT_PINNED(h.value(), 0xf549fb700be14b3ULL);
}

TEST(GoldenPinTest, TwoAppConcurrentRunWithSampleLoss) {
  RunnerConfig config = shortRunner(40000.0);
  config.faults = fault::FaultPlan::fromFile(repoPath("scenarios/sample_loss.toml"));
  GeQiuPolicy policy(GeQiuConfig{}, /*explicitSwitchSignal=*/true);
  const RunResult result = PolicyRunner(config).runConcurrent(
      {workload::mpegDec(1), workload::tachyon(1)}, policy, 450.0);
  EXPECT_GT(result.faultStats.samplesDropped, 0u);
  EXPECT_PINNED(hashOf(result), 0x818117333f014f69ULL);
}

TEST(GoldenPinTest, NonDefaultLumpedPackageRun) {
  // One node per core, three cores (a partial last row in the two-column
  // layout) and non-default lateral and vertical resistances.
  RunnerConfig config = shortRunner(900.0);
  config.machine.coreCount = 3;
  config.machine.thermal.lateralResistance = 2.3;
  config.machine.thermal.junctionToSpreader = 1.37;
  StaticGovernorPolicy linux({platform::GovernorKind::Ondemand, 0.0});
  const RunResult result = PolicyRunner(config).run(
      workload::Scenario::of({workload::tachyon(1), workload::mpegDec(1)}), linux);
  EXPECT_EQ(result.coreTraces.size(), 3u);
  EXPECT_PINNED(hashOf(result), 0x4ce79d6fd79fe698ULL);
}

TEST(GoldenPinTest, GridPackageRun) {
  // A 2x2 cell grid per core: the sensors read each core's hottest cell.
  RunnerConfig config = shortRunner(900.0);
  config.machine.thermalCellsPerCoreSide = 2;
  StaticGovernorPolicy linux({platform::GovernorKind::Ondemand, 0.0});
  const RunResult result = PolicyRunner(config).run(
      workload::Scenario::of({workload::tachyon(1), workload::mpegDec(1)}), linux);
  EXPECT_FALSE(result.completions.empty());
  EXPECT_PINNED(hashOf(result), 0xa23d4ee7babb4195ULL);
}

TEST(GoldenPinTest, FleetTenantTraceHash) {
  serve::FleetServiceConfig config;
  config.jobs = 1;
  config.trainSimTime = 120.0;
  serve::FleetService service(config);
  serve::AdmitRequest request;
  request.tenant = "pinned";
  request.family = "mpeg_enc";
  request.dataset = 2;
  request.seed = 7;
  ASSERT_TRUE(service.submit(request).accepted);
  for (int pass = 0; pass < 8; ++pass) (void)service.runPass();
  const auto status = service.query("pinned");
  ASSERT_TRUE(status.has_value());
  EXPECT_GE(status->decisions, 8u);
  EXPECT_PINNED(status->traceHash, 0x1c36485757d6352ULL);
}

}  // namespace
}  // namespace rltherm::core
