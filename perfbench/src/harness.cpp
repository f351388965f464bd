#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "core/safety_supervisor.hpp"
#include "reliability/analyzer.hpp"
#include "sched/scheduler.hpp"
#include "thermal/expop_cache.hpp"

namespace perfbench {

using namespace rltherm;


std::uint64_t mixSeed(std::uint64_t base, std::uint64_t salt) noexcept {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

workload::Scenario repeated(const std::vector<workload::AppSpec>& apps, int times) {
  std::vector<workload::AppSpec> sequence;
  for (int i = 0; i < times; ++i) sequence.insert(sequence.end(), apps.begin(), apps.end());
  return workload::Scenario::of(sequence);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

void Digest::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 64; i += 8) {
    hash_ ^= (value >> i) & 0xffULL;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }

void Digest::add(const std::string& value) noexcept {
  for (const char c : value) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  add(static_cast<std::uint64_t>(value.size()));
}

void Digest::add(const core::RunResult& result) noexcept {
  add(result.duration);
  add(static_cast<std::uint64_t>(result.timedOut ? 1 : 0));
  for (const workload::AppCompletion& done : result.completions) {
    add(done.name);
    add(done.startTime);
    add(done.endTime);
    add(static_cast<std::uint64_t>(done.iterations));
  }
  const reliability::ChipReliability& chip = result.reliability;
  add(static_cast<double>(chip.averageTemp));
  add(static_cast<double>(chip.peakTemp));
  add(chip.agingMttfYears);
  add(chip.cyclingMttfYears);
  add(chip.stress);
  for (const reliability::CoreReliability& core : chip.cores) {
    add(core.stress);
    add(core.agingRate);
    add(static_cast<std::uint64_t>(core.cycleCount));
  }
  add(result.dynamicEnergy);
  add(result.staticEnergy);
  for (const std::vector<Celsius>& trace : result.coreTraces) {
    for (const Celsius t : trace) add(static_cast<double>(t));
  }
}

void checkRun(const core::RunResult& result, std::size_t expectedApps,
              const platform::MachineConfig& machine, const std::string& label,
              std::vector<std::string>& problems) {
  if (result.timedOut) problems.push_back(label + ": run timed out");
  if (result.completions.size() != expectedApps) {
    problems.push_back(label + ": " + std::to_string(result.completions.size()) + " of " +
                       std::to_string(expectedApps) + " apps completed");
  }
  const double ambient = static_cast<double>(machine.thermal.ambient);
  const double limit = static_cast<double>(machine.throttleTemp);
  for (const std::vector<Celsius>& trace : result.coreTraces) {
    for (const Celsius t : trace) {
      const auto value = static_cast<double>(t);
      if (!(value >= ambient && value <= limit)) {
        problems.push_back(label + ": temperature " + std::to_string(value) +
                           " C outside [ambient, throttle limit]");
        return;
      }
    }
  }
}

double probeAnalyzeChip(const core::RunResult& result, const core::RunnerConfig& config,
                        const std::string& label, std::vector<std::string>& problems) {
  const auto skipHead = static_cast<std::size_t>(config.analysisWarmup / config.traceInterval);
  const auto skipTail = static_cast<std::size_t>(config.analysisCooldown / config.traceInterval);
  std::vector<std::vector<Celsius>> analyzed;
  for (const std::vector<Celsius>& trace : result.coreTraces) {
    if (trace.size() > (skipHead + skipTail) * 2) {
      analyzed.emplace_back(trace.begin() + static_cast<std::ptrdiff_t>(skipHead),
                            trace.end() - static_cast<std::ptrdiff_t>(skipTail));
    } else {
      analyzed.push_back(trace);
    }
  }
  const reliability::ReliabilityAnalyzer analyzer(config.analyzer);
  const std::uint64_t start = nowNs();
  const reliability::ChipReliability chip = analyzer.analyzeChip(analyzed, config.traceInterval);
  const double ms = static_cast<double>(nowNs() - start) / 1e6;
  const reliability::ChipReliability& reported = result.reliability;
  if (chip.cyclingMttfYears != reported.cyclingMttfYears ||
      chip.agingMttfYears != reported.agingMttfYears || chip.stress != reported.stress ||
      chip.peakTemp != reported.peakTemp || chip.averageTemp != reported.averageTemp) {
    problems.push_back(label + ": reliability analysis does not reproduce the run's figures");
  }
  return ms;
}

ObservedPolicy::ObservedPolicy(std::unique_ptr<core::ThermalPolicy> inner, bool timing)
    : inner_(std::move(inner)), timing_(timing) {
  manager_ = dynamic_cast<core::ThermalManager*>(inner_.get());
  if (auto* supervisor = dynamic_cast<core::SafetySupervisor*>(inner_.get())) {
    manager_ = dynamic_cast<core::ThermalManager*>(&supervisor->inner());
  }
}

void ObservedPolicy::arm(std::uint64_t dueNs) noexcept {
  dueNs_ = dueNs;
  firstDecisionNs_ = 0;
}

void ObservedPolicy::onStart(core::PolicyContext& ctx) {
  if (++runs_ == freezeAtRun_) {
    if (manager_ != nullptr) manager_->freeze();
  }
  inner_->onStart(ctx);
}

void ObservedPolicy::onSample(core::PolicyContext& ctx, std::span<const Celsius> sensorTemps) {
  const std::size_t epochsBefore = manager_ != nullptr ? manager_->epochCount() : 0;
  const std::uint64_t start = timing_ ? nowNs() : 0;
  inner_->onSample(ctx, sensorTemps);
  const bool decided = manager_ != nullptr && manager_->epochCount() != epochsBefore;
  if (timing_) {
    const std::uint64_t elapsed = nowNs() - start;
    ++sampleCalls;
    sampleNs += elapsed;
    if (decided) decideUs.push_back(static_cast<double>(elapsed) / 1e3);
  }
  if (decided && dueNs_ != 0 && firstDecisionNs_ == 0) firstDecisionNs_ = nowNs();
}

void addScopeLayers(const ScopeTotals& scopes, double runBusyS, LayerValues& layers) {
  const auto stats = [&scopes](const char* name) {
    const auto it = scopes.find(name);
    return it != scopes.end() ? it->second : obs::TraceCollector::ScopeStats{};
  };
  const auto meanNs = [](const obs::TraceCollector::ScopeStats& s) {
    return s.calls > 0 ? static_cast<double>(s.totalNs) / static_cast<double>(s.calls) : 0.0;
  };
  const auto update = stats("rl.q.update");
  layers["rl.q.update.calls"] = static_cast<double>(update.calls);
  layers["rl.q.update.mean_ns"] = meanNs(update);
  const auto step = stats("thermal.rc.step");
  layers["thermal.rc.step.calls"] = static_cast<double>(step.calls);
  layers["thermal.rc.step.mean_ns"] = meanNs(step);
  layers["thermal.rc.step.share"] =
      runBusyS > 0.0 ? static_cast<double>(step.totalNs) / 1e9 / runBusyS : 0.0;
  const auto prepare = stats("thermal.rc.prepare");
  layers["thermal.rc.prepare.calls"] = static_cast<double>(prepare.calls);
  layers["thermal.rc.prepare.busy_ms"] = static_cast<double>(prepare.totalNs) / 1e6;
  const auto rainflow = stats("reliability.rainflow.pass");
  layers["reliability.rainflow.calls"] = static_cast<double>(rainflow.calls);
  layers["reliability.rainflow.busy_ms"] = static_cast<double>(rainflow.totalNs) / 1e6;
  layers["manager.epoch.aggregate.mean_ns"] = meanNs(stats("manager.epoch.aggregate"));

  const thermal::ExpOpCacheStats cache = thermal::ExpOperatorCache::instance().stats();
  const std::uint64_t lookups = cache.hits + cache.misses;
  layers["thermal.expop.hit_ratio"] =
      lookups > 0 ? static_cast<double>(cache.hits) / static_cast<double>(lookups) : 0.0;
}

namespace {
/// Receives every probed result so the timed calls cannot be optimized away.
volatile double g_probeSink = 0.0;
}  // namespace

void addReplayProbes(const platform::MachineConfig& config, const workload::Scenario& scenario,
                     std::size_t ticks, LayerValues& layers) {
  // Sensors are read at the manager's default 3 s sampling cadence.
  constexpr std::size_t kTicksPerSample = 300;
  double sink = 0.0;

  {
    platform::Machine machine(config);
    workload::WorkloadDriver driver(machine, scenario);
    std::uint64_t tickNs = 0;
    std::uint64_t sensorNs = 0;
    std::size_t reads = 0;
    for (std::size_t done = 0; done < ticks;) {
      const std::uint64_t start = nowNs();
      for (std::size_t i = 0; i < kTicksPerSample && done < ticks; ++i, ++done) {
        sink += driver.tick() ? 1.0 : 0.0;
      }
      const std::uint64_t mid = nowNs();
      const std::vector<Celsius> readings = machine.readSensors();
      sensorNs += nowNs() - mid;
      tickNs += mid - start;
      sink += static_cast<double>(readings.front());
      ++reads;
    }
    layers["workload.tick.mean_ns"] = static_cast<double>(tickNs) / static_cast<double>(ticks);
    layers["sensor.read.mean_ns"] = static_cast<double>(sensorNs) / static_cast<double>(reads);
  }

  constexpr ThreadId kThreads = 6;
  {
    platform::Machine machine(config);
    for (ThreadId id = 0; id < kThreads; ++id) {
      machine.scheduler().addThread(id, sched::AffinityMask::all(config.coreCount));
    }
    const platform::Machine::ActivityFn activity = [](ThreadId) { return 0.7; };
    const std::uint64_t start = nowNs();
    for (std::size_t i = 0; i < ticks; ++i) sink += machine.tick(activity).dynamicPower;
    layers["platform.tick.mean_ns"] =
        static_cast<double>(nowNs() - start) / static_cast<double>(ticks);
  }

  {
    sched::SchedulerConfig schedConfig = config.sched;
    schedConfig.coreCount = config.coreCount;
    sched::Scheduler scheduler(schedConfig);
    for (ThreadId id = 0; id < kThreads; ++id) {
      scheduler.addThread(id, sched::AffinityMask::all(config.coreCount));
    }
    const std::uint64_t start = nowNs();
    for (std::size_t i = 0; i < ticks; ++i) {
      sink += static_cast<double>(scheduler.schedule(config.tick).running.size());
    }
    layers["sched.schedule.mean_ns"] =
        static_cast<double>(nowNs() - start) / static_cast<double>(ticks);
  }
  g_probeSink = sink;
}

}  // namespace perfbench
