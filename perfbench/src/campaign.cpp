// fault_campaign: the sweep grid {clean + 4 scenario files} x {linux,
// proposed} x {raw, supervised} through exec::SweepRunner on a fixed number
// of lanes. The lanes have uneven lengths (training, fault recovery), so the
// slowest one sets the wall time.
//
// The grid mirrors bench/fault_campaign_util.hpp but builds its own specs:
// every lane's policy sits inside an ObservedPolicy, which the sweep's
// freeze-after-train step cannot see through, so the decorator freezes it.
#include <algorithm>
#include <exception>
#include <iostream>

#include "core/baselines.hpp"
#include "core/safety_supervisor.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "harness.hpp"
#include "workload/app_spec.hpp"

namespace perfbench {
namespace {

using namespace rltherm;

class FaultCampaign final : public Workload {
 public:
  explicit FaultCampaign(const Options& options) : options_(options) {
    if (options_.scenarioDir.empty()) {
      throw std::invalid_argument("fault_campaign needs --scenario-dir");
    }
    scenarioNames_ = {"sensor_death", "sample_loss", "dvfs_brownout", "combined_storm"};
    families_ = {"tachyon"};
    if (options_.small) {
      scenarioNames_ = {"sensor_death"};
      families_ = {"face_rec"};
    }
  }

  void release() override {
    pool_.reset();
    specs_.clear();
  }

  void setup(std::uint64_t repSeed) override {
    std::vector<std::pair<std::string, fault::FaultPlan>> scenarios;
    scenarios.emplace_back("clean", fault::FaultPlan{});
    for (const std::string& name : scenarioNames_) {
      scenarios.emplace_back(name,
                             fault::FaultPlan::fromFile(options_.scenarioDir + "/" + name + ".toml"));
    }
    std::vector<workload::AppSpec> apps;
    for (std::size_t f = 0; f < families_.size(); ++f) {
      workload::AppSpec app = workload::makeApp(families_[f], 1);
      app.seed = mixSeed(repSeed, 100 + f);
      apps.push_back(std::move(app));
    }

    specs_.clear();
    for (const auto& [label, plan] : scenarios) {
      for (const bool proposed : {false, true}) {
        for (const bool supervised : {false, true}) {
          exec::RunSpec spec;
          spec.label = label + (proposed ? "/proposed" : "/linux") +
                       (supervised ? "/safe" : "/raw");
          spec.scenario = workload::Scenario::of(apps);
          if (proposed) spec.train = repeated(apps, 2);
          spec.runner.maxSimTime = 20000.0;
          spec.runner.faults = plan;
          // Non-zero: the sweep derives each lane's sensor and manager seed.
          spec.seed = repSeed | 1U;
          const std::uint64_t* due = &dueNs_;
          spec.policy = [proposed, supervised, due](std::uint64_t seed) {
            std::unique_ptr<core::ThermalPolicy> inner;
            if (proposed) {
              core::ThermalManagerConfig config;
              config.seed = seed;
              inner = std::make_unique<core::ThermalManager>(
                  config, core::ActionSpace::standard(platform::MachineConfig{}.coreCount));
            } else {
              inner = std::make_unique<core::StaticGovernorPolicy>(
                  platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
            }
            if (supervised) {
              inner = std::make_unique<core::SafetySupervisor>(std::move(inner),
                                                               core::SafetySupervisorConfig{});
            }
            auto observed = std::make_unique<ObservedPolicy>(std::move(inner), false);
            // Train, then evaluate frozen.
            if (proposed) observed->freezeAtRun(2);
            observed->arm(*due);
            return std::unique_ptr<core::ThermalPolicy>(std::move(observed));
          };
          specs_.push_back(std::move(spec));
        }
      }
    }
    pool_ = std::make_unique<exec::ThreadPool>(options_.lanes);
  }

  [[nodiscard]] std::size_t threads() const override { return options_.lanes; }

  RepOutcome run(bool traced) override {
    RepOutcome out;
    out.attempted = specs_.size();
    exec::SweepOptions sweepOptions;
    sweepOptions.jobs = options_.lanes;
    sweepOptions.forwardToAmbient = false;
    sweepOptions.collectScopes = traced;

    dueNs_ = nowNs();
    exec::SweepResult sweep;
    try {
      sweep = exec::SweepRunner(sweepOptions).run(specs_, *pool_);
    } catch (const std::exception& error) {
      out.failed = specs_.size();
      out.wallS = secondsSince(dueNs_);
      std::cerr << "fault_campaign: " << error.what() << "\n";
      return out;
    }
    out.wallS = secondsSince(dueNs_);
    out.tenantsPerS = static_cast<double>(specs_.size()) / out.wallS;

    Digest digest;
    std::size_t runnerRuns = 0;
    for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
      const exec::RunReport& report = sweep.runs[i];
      const std::size_t before = out.problems.size();
      checkRun(report.result, specs_[i].scenario.apps.size(), specs_[i].runner.machine,
               report.label, out.problems);
      if (out.problems.size() != before) ++out.failed;
      digest.add(report.result);
      // Training runs are not in the report; the runner's own finish events
      // carry every run's simulated duration.
      for (const obs::Event& event : report.events) {
        if (event.name == "runner.run.finish") {
          out.simSeconds += event.simTime;
          ++runnerRuns;
        }
      }
      const auto& observed = dynamic_cast<const ObservedPolicy&>(*report.policy);
      if (observed.decided()) out.firstDecisions.push_back(observed.firstDecision());
    }
    out.digest = digest.value();
    if (!traced) return out;

    LayerValues& layers = out.layers;
    double faultsInjected = 0.0;
    double quarantines = 0.0;
    double retries = 0.0;
    double emergencies = 0.0;
    std::vector<double> rawMs;
    std::vector<double> safeMs;
    std::vector<double> laneMs;
    double analyzeMs = 0.0;
    for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
      const exec::RunReport& report = sweep.runs[i];
      const fault::FaultStats& f = report.result.faultStats;
      faultsInjected += static_cast<double>(f.sensorFaultsApplied + f.samplesDropped +
                                            f.samplesDelayed + f.dvfsIgnored + f.dvfsDeferred +
                                            f.dvfsPartial + f.affinityDropped);
      auto& observed = dynamic_cast<ObservedPolicy&>(*report.policy);
      if (const auto* supervisor = dynamic_cast<const core::SafetySupervisor*>(&observed.inner())) {
        quarantines += static_cast<double>(supervisor->stats().quarantines);
        retries += static_cast<double>(supervisor->stats().actuationRetries);
        emergencies += static_cast<double>(supervisor->stats().emergencies);
        safeMs.push_back(report.wallMs);
      } else {
        rawMs.push_back(report.wallMs);
      }
      laneMs.push_back(report.wallMs);
      analyzeMs += probeAnalyzeChip(report.result, specs_[i].runner, report.label, out.problems);
    }
    const auto mean = [](const std::vector<double>& values) {
      double sum = 0.0;
      for (const double v : values) sum += v;
      return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
    };
    layers["fault.injected"] = faultsInjected;
    layers["safety.quarantines"] = quarantines;
    layers["safety.retries"] = retries;
    layers["safety.emergencies"] = emergencies;
    layers["fault.raw_lane.mean_ms"] = mean(rawMs);
    layers["fault.safe_lane.mean_ms"] = mean(safeMs);
    layers["safety.overhead_ratio"] = mean(safeMs) / mean(rawMs);

    const double lanes = static_cast<double>(sweep.jobs);
    layers["exec.lanes"] = lanes;
    layers["exec.speedup"] = sweep.speedup();
    layers["exec.efficiency"] = sweep.speedup() / lanes;
    layers["exec.run.p50_ms"] = quantile(laneMs, 0.5);
    layers["exec.run.max_ms"] = *std::max_element(laneMs.begin(), laneMs.end());
    layers["exec.tail_share"] = layers["exec.run.max_ms"] / sweep.wallMs;

    const double runBusyS = sweep.serialMsEstimate / 1e3;
    layers["core.run.calls"] = static_cast<double>(runnerRuns);
    layers["core.run.busy_s"] = runBusyS;
    addScopeLayers(sweep.scopes, runBusyS, layers);
    layers["reliability.analyze_chip.mean_ms"] =
        analyzeMs / static_cast<double>(sweep.runs.size());
    const platform::MachineConfig& machine = specs_.front().runner.machine;
    layers["platform.ticks"] = out.simSeconds / machine.tick;
    addReplayProbes(machine, specs_.front().scenario, 20000, layers);
    return out;
  }

 private:
  Options options_;
  std::vector<std::string> scenarioNames_;
  std::vector<std::string> families_;
  std::vector<exec::RunSpec> specs_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::uint64_t dueNs_ = 0;  ///< every lane is due when the sweep starts
};

}  // namespace

std::unique_ptr<Workload> makeFaultCampaign(const Options& options) {
  return std::make_unique<FaultCampaign>(options);
}

}  // namespace perfbench
