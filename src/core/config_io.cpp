#include "core/config_io.hpp"

#include <type_traits>

#include "common/error.hpp"

namespace rltherm::core {
namespace {

/// Overlays `[section] key` onto `field`, keeping the field's value as the
/// default; the getter is chosen by the field's type.
template <typename T>
void overlay(const ConfigFile& config, const char* section, const char* key, T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = config.getBool(section, key, field);
  } else if constexpr (std::is_floating_point_v<T>) {
    field = config.getDouble(section, key, field);
  } else {
    field = static_cast<T>(config.getInt(section, key, static_cast<long long>(field)));
  }
}

}  // namespace

RunnerConfig runnerConfigFrom(const ConfigFile& config) {
  RunnerConfig runner;

  platform::MachineConfig& machine = runner.machine;
  overlay(config, "machine", "cores", machine.coreCount);
  overlay(config, "machine", "tick", machine.tick);
  overlay(config, "machine", "governor_period", machine.governorPeriod);
  overlay(config, "machine", "warm_start", machine.warmStart);
  const long long cells = config.getInt(
      "machine", "thermal_cells", static_cast<long long>(machine.thermalCellsPerCoreSide));
  expects(cells >= 1, "[machine] thermal_cells must be >= 1 (1 = one node per core)");
  machine.thermalCellsPerCoreSide = static_cast<std::size_t>(cells);
  if (config.getBool("machine", "big_little", false)) {
    machine.coreTypes = platform::bigLittleCoreTypes();
    expects(machine.coreCount == machine.coreTypes.size(),
            "big_little requires cores = 4");
  }

  thermal::PackageRcConfig& t = machine.thermal;
  overlay(config, "thermal", "ambient", t.ambient);
  overlay(config, "thermal", "core_capacitance", t.coreCapacitance);
  overlay(config, "thermal", "junction_to_spreader", t.junctionToSpreader);
  overlay(config, "thermal", "lateral_resistance", t.lateralResistance);
  overlay(config, "thermal", "spreader_to_sink", t.spreaderToSink);
  overlay(config, "thermal", "sink_to_ambient", t.sinkToAmbient);
  overlay(config, "thermal", "spreader_capacitance", t.spreaderCapacitance);
  overlay(config, "thermal", "sink_capacitance", t.sinkCapacitance);

  overlay(config, "sensor", "quantization", machine.sensor.quantizationStep);
  overlay(config, "sensor", "noise_sigma", machine.sensor.noiseSigma);

  overlay(config, "runner", "trace_interval", runner.traceInterval);
  overlay(config, "runner", "max_sim_time", runner.maxSimTime);
  overlay(config, "runner", "warmup", runner.analysisWarmup);
  overlay(config, "runner", "cooldown", runner.analysisCooldown);
  return runner;
}

ThermalManagerConfig managerConfigFrom(const ConfigFile& config) {
  ThermalManagerConfig manager;
  overlay(config, "manager", "sampling_interval", manager.samplingInterval);
  overlay(config, "manager", "decision_epoch", manager.decisionEpoch);
  overlay(config, "manager", "stress_bins", manager.stressBins);
  overlay(config, "manager", "aging_bins", manager.agingBins);
  overlay(config, "manager", "gamma", manager.gamma);
  overlay(config, "manager", "adaptive_sampling", manager.adaptiveSampling);
  overlay(config, "manager", "decision_overhead", manager.decisionOverhead);
  overlay(config, "manager", "seed", manager.seed);
  overlay(config, "manager", "intra_threshold_aging", manager.intraThresholdAging);
  overlay(config, "manager", "inter_threshold_aging", manager.interThresholdAging);
  return manager;
}

void requireKnownKeys(const ConfigFile& config, const std::string& source) {
  config.requireKnownKeys(
      [](const ConfigFile& probe) {
        (void)runnerConfigFrom(probe);
        (void)managerConfigFrom(probe);
      },
      source);
}

}  // namespace rltherm::core
