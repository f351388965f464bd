#include "core/config_io.hpp"

#include "common/toml.hpp"

namespace rltherm::core {
namespace {

LoadedConfig configFrom(TomlDocument& doc) {
  LoadedConfig config;
  platform::MachineConfig& machine = config.runner.machine;
  if (TomlDocument::Table* t = doc.table("machine")) {
    doc.read(*t, "cores", machine.coreCount);
    doc.read(*t, "tick", machine.tick);
    doc.read(*t, "governor_period", machine.governorPeriod);
    doc.read(*t, "warm_start", machine.warmStart);
    if (const auto* cells = doc.read(*t, "thermal_cells", machine.thermalCellsPerCoreSide);
        cells != nullptr && machine.thermalCellsPerCoreSide == 0) {
      doc.fail(cells->line, "'thermal_cells' must be >= 1 (1 = one node per core)");
    }
    bool bigLittle = false;
    const auto* bigLittleAt = doc.read(*t, "big_little", bigLittle);
    if (bigLittle) {
      machine.coreTypes = platform::bigLittleCoreTypes();
      if (machine.coreCount != machine.coreTypes.size()) {
        doc.fail(bigLittleAt->line, "big_little requires cores = 4");
      }
    }
  }
  if (TomlDocument::Table* t = doc.table("thermal")) {
    thermal::PackageRcConfig& rc = machine.thermal;
    doc.read(*t, "ambient", rc.ambient);
    doc.read(*t, "core_capacitance", rc.coreCapacitance);
    doc.read(*t, "junction_to_spreader", rc.junctionToSpreader);
    doc.read(*t, "lateral_resistance", rc.lateralResistance);
    doc.read(*t, "spreader_to_sink", rc.spreaderToSink);
    doc.read(*t, "sink_to_ambient", rc.sinkToAmbient);
    doc.read(*t, "spreader_capacitance", rc.spreaderCapacitance);
    doc.read(*t, "sink_capacitance", rc.sinkCapacitance);
  }
  if (TomlDocument::Table* t = doc.table("sensor")) {
    doc.read(*t, "quantization", machine.sensor.quantizationStep);
    doc.read(*t, "noise_sigma", machine.sensor.noiseSigma);
  }
  if (TomlDocument::Table* t = doc.table("runner")) {
    doc.read(*t, "trace_interval", config.runner.traceInterval);
    doc.read(*t, "max_sim_time", config.runner.maxSimTime);
    doc.read(*t, "warmup", config.runner.analysisWarmup);
    doc.read(*t, "cooldown", config.runner.analysisCooldown);
  }
  if (TomlDocument::Table* t = doc.table("manager")) {
    ThermalManagerConfig& m = config.manager;
    doc.read(*t, "sampling_interval", m.samplingInterval);
    doc.read(*t, "decision_epoch", m.decisionEpoch);
    doc.read(*t, "stress_bins", m.stressBins);
    doc.read(*t, "aging_bins", m.agingBins);
    doc.read(*t, "gamma", m.gamma);
    doc.read(*t, "adaptive_sampling", m.adaptiveSampling);
    doc.read(*t, "decision_overhead", m.decisionOverhead);
    doc.read(*t, "seed", m.seed);
    doc.read(*t, "intra_threshold_aging", m.intraThresholdAging);
    doc.read(*t, "inter_threshold_aging", m.interThresholdAging);
  }
  doc.rejectUnread();
  return config;
}

}  // namespace

LoadedConfig parseConfig(std::string_view text, const std::string& source) {
  TomlDocument doc = TomlDocument::parse(text, source);
  return configFrom(doc);
}

LoadedConfig loadConfigFile(const std::string& path) {
  TomlDocument doc = TomlDocument::fromFile(path, "config file");
  return configFrom(doc);
}

}  // namespace rltherm::core
