#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace rltherm::core {
namespace {

TEST(ConfigIoTest, EmptyConfigGivesDefaults) {
  const ConfigFile empty;
  const RunnerConfig runner = runnerConfigFrom(empty);
  const RunnerConfig defaults;
  EXPECT_EQ(runner.machine.coreCount, defaults.machine.coreCount);
  EXPECT_DOUBLE_EQ(runner.traceInterval, defaults.traceInterval);
  EXPECT_DOUBLE_EQ(runner.analysisWarmup, defaults.analysisWarmup);

  const ThermalManagerConfig manager = managerConfigFrom(empty);
  const ThermalManagerConfig managerDefaults;
  EXPECT_DOUBLE_EQ(manager.samplingInterval, managerDefaults.samplingInterval);
  EXPECT_EQ(manager.stressBins, managerDefaults.stressBins);
}

TEST(ConfigIoTest, MachineAndThermalKeysApplied) {
  const ConfigFile config = ConfigFile::parse(R"(
[machine]
cores = 2
tick = 0.02
warm_start = false
[thermal]
ambient = 30
sink_to_ambient = 0.5
[sensor]
noise_sigma = 0
quantization = 1.0
[runner]
trace_interval = 2.0
max_sim_time = 123
warmup = 5
cooldown = 1
)");
  const RunnerConfig runner = runnerConfigFrom(config);
  EXPECT_EQ(runner.machine.coreCount, 2u);
  EXPECT_DOUBLE_EQ(runner.machine.tick, 0.02);
  EXPECT_FALSE(runner.machine.warmStart);
  EXPECT_DOUBLE_EQ(runner.machine.thermal.ambient, 30.0);
  EXPECT_DOUBLE_EQ(runner.machine.thermal.sinkToAmbient, 0.5);
  EXPECT_DOUBLE_EQ(runner.machine.sensor.noiseSigma, 0.0);
  EXPECT_DOUBLE_EQ(runner.machine.sensor.quantizationStep, 1.0);
  EXPECT_DOUBLE_EQ(runner.traceInterval, 2.0);
  EXPECT_DOUBLE_EQ(runner.maxSimTime, 123.0);
  EXPECT_DOUBLE_EQ(runner.analysisWarmup, 5.0);
  EXPECT_DOUBLE_EQ(runner.analysisCooldown, 1.0);
}

TEST(ConfigIoTest, BigLittleFlagInstallsCoreTypes) {
  const ConfigFile config = ConfigFile::parse("[machine]\nbig_little = yes\n");
  const RunnerConfig runner = runnerConfigFrom(config);
  ASSERT_EQ(runner.machine.coreTypes.size(), 4u);
  EXPECT_EQ(runner.machine.coreTypes[2].name, "little");
}

TEST(ConfigIoTest, BigLittleRequiresFourCores) {
  const ConfigFile config =
      ConfigFile::parse("[machine]\ncores = 2\nbig_little = yes\n");
  EXPECT_THROW((void)runnerConfigFrom(config), PreconditionError);
}

TEST(ConfigIoTest, ThermalCellsBelowOneRejected) {
  for (const char* cells : {"0", "-2"}) {
    const ConfigFile config =
        ConfigFile::parse(std::string("[machine]\nthermal_cells = ") + cells + "\n");
    EXPECT_THROW((void)runnerConfigFrom(config), PreconditionError) << cells;
  }
  const ConfigFile grid = ConfigFile::parse("[machine]\ncores = 3\nthermal_cells = 2\n");
  EXPECT_EQ(runnerConfigFrom(grid).machine.thermalCellsPerCoreSide, 2u);
}

TEST(ConfigIoTest, ManagerKeysApplied) {
  const ConfigFile config = ConfigFile::parse(R"(
[manager]
sampling_interval = 1.5
decision_epoch = 15
stress_bins = 3
aging_bins = 5
gamma = 0.5
adaptive_sampling = yes
decision_overhead = 0.1
seed = 99
intra_threshold_aging = 0.07
inter_threshold_aging = 0.2
)");
  const ThermalManagerConfig manager = managerConfigFrom(config);
  EXPECT_DOUBLE_EQ(manager.samplingInterval, 1.5);
  EXPECT_DOUBLE_EQ(manager.decisionEpoch, 15.0);
  EXPECT_EQ(manager.stressBins, 3u);
  EXPECT_EQ(manager.agingBins, 5u);
  EXPECT_DOUBLE_EQ(manager.gamma, 0.5);
  EXPECT_TRUE(manager.adaptiveSampling);
  EXPECT_DOUBLE_EQ(manager.decisionOverhead, 0.1);
  EXPECT_EQ(manager.seed, 99u);
  EXPECT_DOUBLE_EQ(manager.intraThresholdAging, 0.07);
  EXPECT_DOUBLE_EQ(manager.interThresholdAging, 0.2);
}

TEST(ConfigIoTest, LoadedConfigsConstructWorkingObjects) {
  const ConfigFile config = ConfigFile::parse(
      "[machine]\ncores = 2\n[manager]\nsampling_interval = 1\ndecision_epoch = 4\n");
  const RunnerConfig runnerConfig = runnerConfigFrom(config);
  PolicyRunner runner(runnerConfig);
  ThermalManager manager(managerConfigFrom(config), ActionSpace::standard(2));
  EXPECT_DOUBLE_EQ(manager.samplingInterval(), 1.0);
}

TEST(ConfigIoTest, EveryMappedKeyIsKnown) {
  const ConfigFile config = ConfigFile::parse(R"(
[machine]
cores = 4
tick = 0.01
governor_period = 0.1
warm_start = yes
big_little = no
thermal_cells = 1
[thermal]
ambient = 45
core_capacitance = 1
junction_to_spreader = 1
lateral_resistance = 1
spreader_to_sink = 1
sink_to_ambient = 1
spreader_capacitance = 1
sink_capacitance = 1
[sensor]
quantization = 1
noise_sigma = 0.5
[manager]
sampling_interval = 3
decision_epoch = 30
stress_bins = 4
aging_bins = 4
gamma = 0.75
adaptive_sampling = no
decision_overhead = 0.1
seed = 1
intra_threshold_aging = 0.1
inter_threshold_aging = 0.3
[runner]
trace_interval = 1
max_sim_time = 100
warmup = 10
cooldown = 5
)");
  EXPECT_NO_THROW(requireKnownKeys(config, "all.ini"));
}

TEST(ConfigIoTest, MisspeltKeyIsRejectedWithFileLineSectionAndKey) {
  const ConfigFile config =
      ConfigFile::parse("[manager]\ngamma = 0.5\n\n[runner]\nmax_sim_tme = 40\n");
  try {
    requireKnownKeys(config, "study.ini");
    FAIL() << "a misspelt key was accepted";
  } catch (const PreconditionError& error) {
    EXPECT_STREQ(error.what(), "study.ini:5: unknown key 'max_sim_tme' in [runner]");
  }
}

TEST(ConfigIoTest, KeysInUnknownSectionsOrOutsideSectionsAreRejected) {
  EXPECT_THROW(requireKnownKeys(ConfigFile::parse("[runer]\nmax_sim_time = 40\n"), "a.ini"),
               PreconditionError);
  try {
    requireKnownKeys(ConfigFile::parse("seed = 3\n"), "b.ini");
    FAIL() << "a key outside any section was accepted";
  } catch (const PreconditionError& error) {
    EXPECT_STREQ(error.what(), "b.ini:1: unknown key 'seed' outside any [section]");
  }
}

}  // namespace
}  // namespace rltherm::core
