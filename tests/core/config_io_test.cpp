#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/plan.hpp"

namespace rltherm::core {
namespace {

/// Every key the mapping reads, once.
const char* kEveryKey = R"(
[machine]
cores = 4
tick = 0.01
governor_period = 0.1
warm_start = true
big_little = false
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
adaptive_sampling = false
decision_overhead = 0.1
seed = 1
intra_threshold_aging = 0.1
inter_threshold_aging = 0.3
[runner]
trace_interval = 1
max_sim_time = 100
warmup = 10
cooldown = 5
)";

std::string configError(const std::string& text) {
  try {
    (void)parseConfig(text, "hostile.toml");
  } catch (const PreconditionError& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected the config to be rejected:\n" << text;
  return {};
}

TEST(ConfigIoTest, EmptyConfigGivesDefaults) {
  const LoadedConfig empty = parseConfig("", "empty.toml");
  const RunnerConfig& runner = empty.runner;
  const RunnerConfig defaults;
  EXPECT_EQ(runner.machine.coreCount, defaults.machine.coreCount);
  EXPECT_DOUBLE_EQ(runner.traceInterval, defaults.traceInterval);
  EXPECT_DOUBLE_EQ(runner.analysisWarmup, defaults.analysisWarmup);

  const ThermalManagerConfig& manager = empty.manager;
  const ThermalManagerConfig managerDefaults;
  EXPECT_DOUBLE_EQ(manager.samplingInterval, managerDefaults.samplingInterval);
  EXPECT_EQ(manager.stressBins, managerDefaults.stressBins);
}

TEST(ConfigIoTest, MachineAndThermalKeysApplied) {
  const RunnerConfig runner = parseConfig(R"(
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
)", "keys.toml").runner;
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
  const RunnerConfig runner = parseConfig("[machine]\nbig_little = true\n", "bl.toml").runner;
  ASSERT_EQ(runner.machine.coreTypes.size(), 4u);
  EXPECT_EQ(runner.machine.coreTypes[2].name, "little");
}

TEST(ConfigIoTest, BigLittleRequiresFourCores) {
  EXPECT_EQ(configError("[machine]\ncores = 2\nbig_little = true\n"),
            "hostile.toml:3: big_little requires cores = 4");
}

TEST(ConfigIoTest, ThermalCellsBelowOneRejected) {
  EXPECT_EQ(configError("[machine]\nthermal_cells = 0\n"),
            "hostile.toml:2: 'thermal_cells' must be >= 1 (1 = one node per core)");
  EXPECT_EQ(configError("[machine]\nthermal_cells = -2\n"),
            "hostile.toml:2: key 'thermal_cells' must be a non-negative integer, got '-2'");
  const LoadedConfig grid = parseConfig("[machine]\ncores = 3\nthermal_cells = 2\n", "g.toml");
  EXPECT_EQ(grid.runner.machine.thermalCellsPerCoreSide, 2u);
}

TEST(ConfigIoTest, ManagerKeysApplied) {
  const ThermalManagerConfig manager = parseConfig(R"(
[manager]
sampling_interval = 1.5
decision_epoch = 15
stress_bins = 3
aging_bins = 5
gamma = 0.5
adaptive_sampling = true
decision_overhead = 0.1
seed = 99
intra_threshold_aging = 0.07
inter_threshold_aging = 0.2
)", "manager.toml").manager;
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
  const LoadedConfig config = parseConfig(
      "[machine]\ncores = 2\n[manager]\nsampling_interval = 1\ndecision_epoch = 4\n",
      "small.toml");
  PolicyRunner runner(config.runner);
  ThermalManager manager(config.manager, ActionSpace::standard(2));
  EXPECT_DOUBLE_EQ(manager.samplingInterval(), 1.0);
}

TEST(ConfigIoTest, EveryMappedKeyIsKnown) {
  EXPECT_NO_THROW((void)parseConfig(kEveryKey, "all.toml"));
}

TEST(ConfigIoTest, MisspeltKeyIsRejectedWithFileLineSectionAndKey) {
  try {
    (void)parseConfig("[manager]\ngamma = 0.5\n\n[runner]\nmax_sim_tme = 40\n", "study.ini");
    FAIL() << "a misspelt key was accepted";
  } catch (const PreconditionError& error) {
    EXPECT_STREQ(error.what(), "study.ini:5: unknown key 'max_sim_tme' in [runner]");
  }
}

TEST(ConfigIoTest, KeysInUnknownSectionsOrOutsideSectionsAreRejected) {
  EXPECT_EQ(configError("[runer]\nmax_sim_time = 40\n"),
            "hostile.toml:1: unknown table '[runer]'");
  EXPECT_EQ(configError("seed = 3\n"), "hostile.toml:1: unknown key 'seed' outside any table");
  EXPECT_EQ(configError("[[machine]]\ncores = 2\n"),
            "hostile.toml:1: unknown table '[[machine]]'");
}

TEST(ConfigIoTest, HostileConfigsGetExactDiagnostics) {
  const std::pair<const char*, const char*> cases[] = {
      {"[machine]\ncores = -1\n",
       "hostile.toml:2: key 'cores' must be a non-negative integer, got '-1'"},
      {"[manager]\nstress_bins = -2\n",
       "hostile.toml:2: key 'stress_bins' must be a non-negative integer, got '-2'"},
      {"[manager]\nseed = -1\n",
       "hostile.toml:2: key 'seed' must be a non-negative integer, got '-1'"},
      {"[manager]\nseed = 18446744073709551616\n",
       "hostile.toml:2: key 'seed' must be a non-negative integer, got "
       "'18446744073709551616'"},
      {"[runner]\nmax_sim_time = 0x28\n",
       "hostile.toml:2: key 'max_sim_time' has malformed number '0x28'"},
      {"[runner]\nwarmup = 5\nwarmup = 6\n",
       "hostile.toml:3: duplicate key 'warmup' in [runner]"},
      {"[machine\ncores = 2\n", "hostile.toml:1: unterminated table header '[machine'"},
      {"[machine]\nbig_little = yes\n",
       "hostile.toml:2: key 'big_little' must be true or false, got 'yes'"},
      {"[machine]\ncores = 4 ; c\n",
       "hostile.toml:2: key 'cores' has malformed number '4 ; c'"},
      {"[machine]\n; old-style comment\n",
       "hostile.toml:2: expected 'key = value', got '; old-style comment'"},
      {"[manager]\ngamma = \"0.5\"\n",
       "hostile.toml:2: key 'gamma' must be a number, got a string"},
  };
  for (const auto& [text, expected] : cases) EXPECT_EQ(configError(text), expected) << text;
}

TEST(ConfigIoTest, LargestSeedLoadsExactly) {
  const LoadedConfig config =
      parseConfig("[manager]\nseed = 18446744073709551615\n", "seed.toml");
  EXPECT_EQ(config.manager.seed, UINT64_MAX);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Seeded byte mutations of the committed scenarios and of config documents:
// every mutant must map to a FaultPlan or a LoadedConfig, or fail with a
// PreconditionError that names its source — never another exception, a
// crash or a sanitizer report.
TEST(TomlFuzzTest, MutantsEitherParseOrRaiseACleanError) {
  struct Seed {
    std::string text;
    bool scenario;
  };
  std::vector<Seed> seeds;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(RLTHERM_REPO_ROOT) + "/scenarios")) {
    if (entry.path().extension() == ".toml") seeds.push_back({slurp(entry.path()), true});
  }
  ASSERT_GE(seeds.size(), 4u);
  for (const char* config :
       {kEveryKey,
        "[runner]\nmax_sim_time = 400\nwarmup = 10\ncooldown = 5\n\n"
        "[manager]\nsampling_interval = 0.5\ndecision_epoch = 2.0\n",
        "# study\n[machine]\ncores = 2  # two\nbig_little = false\n"
        "[manager]\nseed = 18446744073709551615\n"}) {
    seeds.push_back({config, false});
  }
  for (const Seed& seed : seeds) {
    if (seed.scenario) {
      ASSERT_NO_THROW((void)fault::FaultPlan::parse(seed.text, "fuzz.toml"));
    } else {
      ASSERT_NO_THROW((void)parseConfig(seed.text, "fuzz.toml"));
    }
  }
  const std::string alphabet = "[]\"=#.\\-+0123456789eEtf \n\t\x01\xff";
  Rng rng(0x70F1F022ULL);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniformInt(static_cast<std::uint64_t>(n)));
  };
  std::size_t parsedCount = 0;
  std::size_t rejectedCount = 0;
  for (int mutant = 0; mutant < 4000; ++mutant) {
    const Seed& seed = seeds[below(seeds.size())];
    std::string text = seed.text;
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = below(text.size());
      switch (below(4)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << below(8)));
          break;
        case 1:  // insert a grammar-significant or arbitrary byte
          text.insert(at, 1,
                      below(2) == 0 ? alphabet[below(alphabet.size())]
                                    : static_cast<char>(below(256)));
          break;
        case 2:  // delete one byte
          text.erase(at, 1);
          break;
        default:  // truncate
          text.resize(at);
          break;
      }
    }
    try {
      if (seed.scenario) {
        (void)fault::FaultPlan::parse(text, "fuzz.toml");
      } else {
        (void)parseConfig(text, "fuzz.toml");
      }
      ++parsedCount;
    } catch (const PreconditionError& error) {
      ++rejectedCount;
      ASSERT_EQ(std::string(error.what()).rfind("fuzz.toml", 0), 0u) << error.what();
    }
  }
  // Vacuity: the mutator must produce both outcomes, or one branch is dead.
  EXPECT_GT(parsedCount, 100u);
  EXPECT_GT(rejectedCount, 100u);
}

}  // namespace
}  // namespace rltherm::core
