// Fault-injection campaign: the (scenario x policy x supervision) grid.
//
// This is the REAL campaign code — bench_fault_campaign, the CLI `faults`
// command and the acceptance tests all build their grids through these
// helpers, so the bit-identical-across-`--jobs` claim and the
// supervised-vs-raw comparisons the tests pin are exercised on exactly the
// code the reports come from.
//
// Grid shape: for every fault plan (plus the implicit clean baseline) and
// every selected policy, two runs are generated — the raw policy and the
// same policy wrapped in a SafetySupervisor — and the report pairs them up
// to print peak-temperature / MTTF / recovery deltas.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/safety_supervisor.hpp"
#include "fault/plan.hpp"

namespace rltherm::bench {

/// One campaign lane: a label plus the plan it replays ("clean" = empty).
struct FaultScenario {
  std::string label;
  fault::FaultPlan plan;
};

struct FaultCampaignOptions {
  std::vector<FaultScenario> scenarios;  ///< replayed per policy; add {"clean", {}} for the baseline
  std::vector<workload::AppSpec> apps;   ///< workload (repeated for training)
  bool includeLinux = true;              ///< static ondemand baseline lanes
  bool includeProposed = true;           ///< trained + frozen RL manager lanes
  int trainRepeats = 2;                  ///< training prefix length (proposed)
  core::RunnerConfig runner;             ///< base config; faults overwritten per lane
  core::ThermalManagerConfig manager;
  core::SafetySupervisorConfig safety;
};

/// The standard in-tree scenario set (scenarios/*.toml) plus the clean
/// baseline lane. `dir` is the scenario directory (see scenarioDir in
/// bench_util.hpp).
inline std::vector<FaultScenario> standardFaultScenarios(const std::string& dir) {
  std::vector<FaultScenario> out;
  out.push_back({"clean", fault::FaultPlan{}});
  for (const char* name :
       {"sensor_death", "sample_loss", "dvfs_brownout", "combined_storm"}) {
    const std::string path = dir + "/" + std::string(name) + ".toml";
    out.push_back({name, fault::FaultPlan::fromFile(path)});
  }
  return out;
}

/// One lane of the campaign grid as a sweep spec. `supervised` wraps the
/// policy in a SafetySupervisor; the sweep engine's freeze-after-train
/// protocol reaches the inner manager through the wrapper.
inline exec::RunSpec faultCampaignSpec(const FaultCampaignOptions& options,
                                       const FaultScenario& scenario,
                                       bool proposed, bool supervised) {
  core::RunnerConfig runner = options.runner;
  runner.faults = scenario.plan;

  exec::RunSpec spec;
  spec.label = scenario.label + "/" + (proposed ? "proposed" : "linux") +
               (supervised ? "/safe" : "/raw");
  spec.scenario = workload::Scenario::of(options.apps);
  spec.runner = std::move(runner);

  const core::ThermalManagerConfig manager = options.manager;
  const core::SafetySupervisorConfig safety = options.safety;
  const std::size_t coreCount = options.runner.machine.coreCount;
  if (proposed) {
    spec.train = repeated(options.apps, options.trainRepeats);
    spec.freezeAfterTrain = true;
    spec.policy = [manager, safety, coreCount, supervised](std::uint64_t) {
      auto inner = std::make_unique<core::ThermalManager>(
          manager, core::ActionSpace::standard(coreCount));
      if (!supervised) return std::unique_ptr<core::ThermalPolicy>(std::move(inner));
      return std::unique_ptr<core::ThermalPolicy>(
          std::make_unique<core::SafetySupervisor>(std::move(inner), safety));
    };
  } else {
    spec.policy = [safety, supervised](std::uint64_t) {
      auto inner = std::make_unique<core::StaticGovernorPolicy>(
          platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
      if (!supervised) return std::unique_ptr<core::ThermalPolicy>(std::move(inner));
      return std::unique_ptr<core::ThermalPolicy>(
          std::make_unique<core::SafetySupervisor>(std::move(inner), safety));
    };
  }
  return spec;
}

/// The full campaign grid, in deterministic (scenario-major) order.
inline std::vector<exec::RunSpec> faultCampaignSpecs(const FaultCampaignOptions& options) {
  std::vector<exec::RunSpec> specs;
  for (const FaultScenario& scenario : options.scenarios) {
    if (options.includeLinux) {
      specs.push_back(faultCampaignSpec(options, scenario, /*proposed=*/false,
                                        /*supervised=*/false));
      specs.push_back(faultCampaignSpec(options, scenario, /*proposed=*/false,
                                        /*supervised=*/true));
    }
    if (options.includeProposed) {
      specs.push_back(faultCampaignSpec(options, scenario, /*proposed=*/true,
                                        /*supervised=*/false));
      specs.push_back(faultCampaignSpec(options, scenario, /*proposed=*/true,
                                        /*supervised=*/true));
    }
  }
  return specs;
}

/// Campaign table: one row per lane, with the supervised rows carrying the
/// deltas against their raw twin (the spec order guarantees raw immediately
/// precedes safe). Recovery time = simulated time from the first quarantine
/// to the last emergency exit (0 when no emergency was needed).
inline TextTable faultCampaignTable(const std::vector<exec::RunSpec>& specs,
                                    const exec::SweepResult& sweep) {
  TextTable table({"lane", "peak_c", "avg_c", "cycling_mttf_y", "aging_mttf_y",
                   "completions", "injected", "substituted", "quarantines",
                   "retries", "emergencies", "recovery_s", "d_peak_c", "d_mttf_y"});
  std::optional<std::size_t> rawTwin;
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    const exec::RunReport& report = sweep.runs[i];
    const core::RunResult& result = report.result;
    const fault::FaultStats& faults = result.faultStats;
    const std::uint64_t injected = faults.sensorFaultsApplied + faults.samplesDropped +
                                   faults.samplesDelayed + faults.dvfsIgnored +
                                   faults.dvfsDeferred + faults.dvfsPartial +
                                   faults.affinityDropped;
    const auto* supervisor =
        dynamic_cast<const core::SafetySupervisor*>(report.policy.get());
    const bool supervised = supervisor != nullptr;

    table.row()
        .cell(report.label)
        .cell(static_cast<double>(result.reliability.peakTemp))
        .cell(static_cast<double>(result.reliability.averageTemp))
        .cell(result.reliability.cyclingMttfYears)
        .cell(result.reliability.agingMttfYears)
        .cell(static_cast<long long>(result.completions.size()))
        .cell(static_cast<long long>(injected));
    if (supervised) {
      const core::SafetyStats& stats = supervisor->stats();
      table.cell(static_cast<long long>(stats.readingsSubstituted))
          .cell(static_cast<long long>(stats.quarantines))
          .cell(static_cast<long long>(stats.actuationRetries))
          .cell(static_cast<long long>(stats.emergencies))
          .cell(supervisor->emergencyDuration());
    } else {
      table.cell("-").cell("-").cell("-").cell("-").cell("-");
    }
    // Delta columns: supervised row minus its raw twin (the grid order
    // guarantees ".../raw" immediately precedes its ".../safe" lane).
    const auto stem = [](const std::string& label) {
      return label.substr(0, label.rfind('/'));
    };
    if (supervised && rawTwin.has_value() &&
        stem(specs[i].label) == stem(specs[*rawTwin].label)) {
      const core::RunResult& raw = sweep.runs[*rawTwin].result;
      table.cell(static_cast<double>(result.reliability.peakTemp - raw.reliability.peakTemp))
          .cell(result.reliability.cyclingMttfYears - raw.reliability.cyclingMttfYears);
    } else {
      table.cell("-").cell("-");
    }
    rawTwin = supervised ? std::nullopt : std::optional<std::size_t>(i);
  }
  return table;
}

}  // namespace rltherm::bench
