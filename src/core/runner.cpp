#include "core/runner.hpp"

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "core/control_loop.hpp"
#include "core/manager_checkpoint.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "resil/replicated_driver.hpp"
#include "workload/multi_app.hpp"

namespace rltherm::core {
namespace {

/// Shared result finalization: trims warm-up/teardown windows, runs the
/// reliability analysis and copies the energy/counter accounting.
void finalizeResult(const RunnerConfig& config, const platform::Machine& machine,
                    RunResult& result) {
  const reliability::ReliabilityAnalyzer analyzer(config.analyzer);
  const auto skipHead =
      static_cast<std::size_t>(config.analysisWarmup / config.traceInterval);
  const auto skipTail =
      static_cast<std::size_t>(config.analysisCooldown / config.traceInterval);
  std::vector<std::vector<Celsius>> analyzed;
  analyzed.reserve(result.coreTraces.size());
  for (const std::vector<Celsius>& trace : result.coreTraces) {
    if (trace.size() > (skipHead + skipTail) * 2) {
      analyzed.emplace_back(trace.begin() + static_cast<std::ptrdiff_t>(skipHead),
                            trace.end() - static_cast<std::ptrdiff_t>(skipTail));
    } else {
      analyzed.push_back(trace);
    }
  }
  result.reliability = analyzer.analyzeChip(analyzed, config.traceInterval);

  const power::EnergyMeter& meter = machine.energyMeter();
  result.dynamicEnergy = meter.dynamicEnergy();
  result.staticEnergy = meter.staticEnergy();
  result.averageDynamicPower = meter.averageDynamicPower();
  result.averageTotalPower = meter.averageTotalPower();
  result.counters = machine.perfCounters().sample();

  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("runner.runs.complete").add();
    metrics->gauge("runner.duration.last").set(result.duration);
    metrics->gauge("runner.energy.dynamic").set(result.dynamicEnergy);
  }
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = "runner.run.finish",
        .simTime = result.duration,
        .fields = {
            obs::field("policy", result.policyName),
            obs::field("scenario", result.scenarioName),
            obs::field("duration_s", result.duration),
            obs::field("timed_out", result.timedOut),
            obs::field("completions", static_cast<std::int64_t>(result.completions.size())),
            obs::field("avg_temp_c", static_cast<double>(result.reliability.averageTemp)),
            obs::field("peak_temp_c", static_cast<double>(result.reliability.peakTemp)),
            obs::field("cycling_mttf_y", result.reliability.cyclingMttfYears),
            obs::field("aging_mttf_y", result.reliability.agingMttfYears),
            obs::field("dynamic_energy_j", result.dynamicEnergy),
            obs::field("static_energy_j", result.staticEnergy),
            obs::field("avg_total_power_w", result.averageTotalPower),
        }});
  }
}

/// The run boundary shared by run() and runConcurrent(): result header,
/// runner.run.start, checkpoint resume, ONE ControlLoop advance to `limit`,
/// the workload driver's accounting, finalizeResult and the checkpoint save.
template <typename DriverT, typename MakeDriver>
RunResult runToLimit(const RunnerConfig& config, ThermalPolicy& policy,
                     std::string scenarioName, Seconds limit, MakeDriver&& makeDriver) {
  ControlLoop<DriverT> loop(config, policy, std::forward<MakeDriver>(makeDriver));

  RunResult result;
  result.policyName = policy.name();
  result.scenarioName = std::move(scenarioName);
  result.traceInterval = config.traceInterval;
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{.name = "runner.run.start",
                         .simTime = 0.0,
                         .fields = {obs::field("policy", result.policyName),
                                    obs::field("scenario", result.scenarioName)}});
  }

  if (!config.resumeCheckpoint.empty()) {
    resumePolicyFromCheckpoint(policy, config.resumeCheckpoint);
  }
  loop.start();
  const bool running = loop.advance(limit);

  result.duration = loop.machine().now();
  result.coreTraces = loop.takeTraces();
  result.faultStats = loop.faultStats();
  const DriverT& driver = loop.driver();
  if constexpr (std::is_same_v<DriverT, workload::MultiAppDriver>) {
    result.timedOut = false;  // the fixed window is the intended stop
    for (std::size_t i = 0; i < driver.appCount(); ++i) {
      result.completions.push_back(workload::AppCompletion{
          .name = driver.spec(i).name,
          .startTime = 0.0,
          .endTime = result.duration,
          .iterations = driver.totalIterations(i),
      });
    }
  } else {
    result.timedOut = running;  // the loop stopped on time, not completion
    result.completions = driver.completions();
    if constexpr (std::is_same_v<DriverT, resil::ReplicatedDriver>) {
      result.deliveredIterations = driver.deliveredIterations();
      result.taintedIterations = driver.taintedIterations();
      result.finalDeliveredRatio = driver.deliveredWorkRatio();
    }
  }
  finalizeResult(config, loop.machine(), result);
  if (!config.saveCheckpointAtEnd.empty()) {
    savePolicyCheckpointOf(policy, config.saveCheckpointAtEnd);
  }
  return result;
}

}  // namespace

PolicyRunner::PolicyRunner(RunnerConfig config) : config_(std::move(config)) {
  expects(config_.traceInterval > 0.0, "traceInterval must be > 0");
  expects(config_.maxSimTime > 0.0, "maxSimTime must be > 0");
}

RunResult PolicyRunner::run(const workload::Scenario& scenario,
                            ThermalPolicy& policy) const {
  if (config_.replication.has_value()) {
    return runToLimit<resil::ReplicatedDriver>(
        config_, policy, scenario.name, config_.maxSimTime, [&](platform::Machine& machine) {
          return resil::ReplicatedDriver(machine, scenario, *config_.replication);
        });
  }
  return runToLimit<workload::WorkloadDriver>(
      config_, policy, scenario.name, config_.maxSimTime,
      [&](platform::Machine& machine) { return workload::WorkloadDriver(machine, scenario); });
}

RunResult PolicyRunner::runConcurrent(const std::vector<workload::AppSpec>& apps,
                                      ThermalPolicy& policy, Seconds duration) const {
  expects(duration > 0.0, "runConcurrent: duration must be > 0");
  std::string scenarioName = "concurrent";
  for (const workload::AppSpec& app : apps) scenarioName += "+" + app.family;
  return runToLimit<workload::MultiAppDriver>(
      config_, policy, std::move(scenarioName), duration, [&](platform::Machine& machine) {
        return workload::MultiAppDriver(machine, apps, /*restartFinished=*/true);
      });
}

}  // namespace rltherm::core
