// ControlLoop: the one closed control loop. PolicyRunner::run (plain and
// replicated), PolicyRunner::runConcurrent and every FleetService tenant run
// it. Per tick: driver.tick() → injector.advanceTo(now) → onAppSwitch (if
// the policy wants it) → at a sampling instant readSensors() → fault filter
// → onSample → monitoring-overhead counters → at a trace instant, the true
// core temperatures. advance(limit) is resumable: it keeps the sampling and
// trace clocks, so advance(a); advance(b) ticks exactly like advance(b).
// The workload driver type is a template parameter (WorkloadDriver,
// ReplicatedDriver, MultiAppDriver), so the tick path adds no virtual
// dispatch.
// See docs/ARCHITECTURE.md "Control loop".
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "platform/machine.hpp"

namespace rltherm::core {

template <typename DriverT>
class ControlLoop {
 public:
  /// Builds the machine from `config.machine`, the workload driver as
  /// `makeDriver(machine)`, and the fault wiring for `config.faults` (none
  /// for an empty plan). `recordTrace = false` skips the ground-truth traces.
  /// The policy must outlive the loop; call start() before advance().
  template <typename MakeDriver>
  ControlLoop(const RunnerConfig& config, ThermalPolicy& policy, MakeDriver&& makeDriver,
              bool recordTrace = true)
      : machine_(config.machine),
        driver_(std::forward<MakeDriver>(makeDriver)(machine_)),
        policy_(policy),
        ctx_{machine_, wireFaults(config.faults)},
        traceInterval_(config.traceInterval),
        monitorCacheMisses_(config.monitorCacheMissesPerSample),
        monitorPageFaults_(config.monitorPageFaultsPerSample),
        nextTrace_(recordTrace ? config.traceInterval
                               : std::numeric_limits<Seconds>::infinity()),
        traces_(recordTrace ? machine_.coreCount() : 0) {}

  // driver_ and ctx_ point into this object.
  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  /// Run-boundary start: policy.onStart, then the first sampling instant.
  void start() {
    policy_.onStart(ctx_);
    nextSample_ = policy_.samplingInterval() > 0.0 ? policy_.samplingInterval() : -1.0;
  }

  /// Ticks until machine time reaches `limit` or the workload completes;
  /// returns false once it has completed.
  bool advance(Seconds limit) {
    while (running_ && machine_.now() < limit) {
      running_ = driver_.tick();
      if (injector_) injector_->advanceTo(machine_.now());

      if (driver_.appJustSwitched() && policy_.wantsAppSwitchSignal()) {
        policy_.onAppSwitch(ctx_);
      }

      const Seconds now = machine_.now();
      if (nextSample_ > 0.0 && now + 1e-9 >= nextSample_) sample(now);
      if (now + 1e-9 >= nextTrace_) {
        const std::vector<Celsius> truth = machine_.trueCoreTemperatures();
        for (std::size_t c = 0; c < truth.size(); ++c) traces_[c].push_back(truth[c]);
        nextTrace_ += traceInterval_;
      }
    }
    return running_;
  }

  [[nodiscard]] const platform::Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] const DriverT& driver() const noexcept { return driver_; }
  /// Sensor passes delivered to the policy, and their hottest reading (0
  /// before the first).
  [[nodiscard]] std::size_t samplesDelivered() const noexcept { return samples_; }
  [[nodiscard]] Celsius peakDeliveredReading() const noexcept { return peakReading_; }
  /// All zero without a fault plan.
  [[nodiscard]] fault::FaultStats faultStats() const {
    return injector_ ? injector_->stats() : fault::FaultStats{};
  }
  /// Moves the ground-truth per-core traces out (empty when not recording).
  [[nodiscard]] std::vector<std::vector<Celsius>> takeTraces() { return std::move(traces_); }

 private:
  /// Emplaces the injector and the affinity gate for a non-empty plan and
  /// returns the workload surface the policy acts on.
  workload::WorkloadControl& wireFaults(const fault::FaultPlan& plan) {
    if (plan.empty()) return driver_;
    injector_ = std::make_unique<fault::FaultInjector>(plan);
    injector_->attach(machine_);
    gated_ = std::make_unique<fault::GatedWorkloadControl>(driver_, *injector_);
    return *gated_;
  }

  void sample(Seconds now) {
    // The sensors are ALWAYS read — a dropped delivery must not perturb the
    // sensor RNG stream, or fault scenarios would not be comparable against
    // their clean baseline.
    std::optional<std::vector<Celsius>> readings = machine_.readSensors();
    if (injector_) readings = injector_->filterSample(now, std::move(*readings));
    if (readings.has_value()) {
      for (const Celsius reading : *readings) peakReading_ = std::max(peakReading_, reading);
      policy_.onSample(ctx_, *readings);
      ++samples_;
      obs::bumpCounter("runner.samples.deliver");
    }
    machine_.perfCounters().recordMonitoringOverhead(monitorCacheMisses_, monitorPageFaults_);
    // Re-read the interval: adaptive-sampling policies change it online.
    nextSample_ += std::max(policy_.samplingInterval(), machine_.tickLength());
  }

  // Declaration order is construction order: driver_ needs machine_, and
  // the injector detaches before machine_ is destroyed.
  platform::Machine machine_;
  DriverT driver_;
  // Heap-held so a fault-free loop (every fleet tenant) stays small.
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::GatedWorkloadControl> gated_;
  ThermalPolicy& policy_;
  PolicyContext ctx_;

  Seconds traceInterval_;
  std::uint64_t monitorCacheMisses_;
  std::uint64_t monitorPageFaults_;
  Seconds nextSample_ = -1.0;
  Seconds nextTrace_;
  bool running_ = true;
  std::size_t samples_ = 0;
  Celsius peakReading_ = 0.0;
  std::vector<std::vector<Celsius>> traces_;
};

}  // namespace rltherm::core
