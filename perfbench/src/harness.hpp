// Repository benchmark harness: shared types for the four workloads.
//
// A workload is measured in repetitions. Each repetition gets its own input
// seed (derived from the benchmark seed and the repetition index), is set up
// outside the timed region (the set-up is timed on its own for setup_s) and
// then runs its timed region from cold process-wide caches. A traced run
// pairs every untraced repetition with a traced one on the same inputs, so
// the per-layer numbers and the tracing overhead come from one process.
//
// Layers are timed from outside, around calls to their public functions;
// the scopes the simulator already records (thermal.rc.step, rl.q.update,
// ...) are read from an aggregates-only TraceCollector. main.cpp
// converts a repetition's end-to-end times to reference seconds with
// HostSpeed (host_speed.hpp); workloads report plain host times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"
#include "obs/timeline.hpp"
#include "platform/machine.hpp"
#include "workload/driver.hpp"

namespace perfbench {

using rltherm::Seconds;

/// Command-line options of rltherm_perfbench.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Parallel lanes for the sweep and fleet workloads; fixed, never "all
  /// hardware threads".
  std::size_t lanes = 2;
  /// Directory that directly holds the fault scenario files.
  std::string scenarioDir;
  /// Small inputs, for the benchmark's own tests.
  bool small = false;
  /// Fleet admission-queue depth; 0 keeps the workload's own.
  std::size_t queueDepth = 0;
};

/// Per-layer values of one traced repetition, by metric name.
using LayerValues = std::map<std::string, double>;

/// What one repetition's timed region did.
struct RepOutcome {
  double wallS = 0.0;
  /// Part of wallS spent in an open-loop phase, whose length the arrival
  /// schedule sets; wall_s leaves it out.
  double openLoopS = 0.0;
  double simSeconds = 0.0;  ///< training + evaluation + every tenant
  std::uint64_t digest = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double tenantsPerS = 0.0;
  /// (due, decided) host times in ns of every first decision observed.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> firstDecisions;
  std::vector<std::string> problems;  ///< failed correctness checks
  LayerValues layers;                 ///< filled by traced repetitions only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs of one repetition from its seed (timed as set-up).
  virtual void setup(std::uint64_t repSeed) = 0;
  /// Drops what the last setup() built, so that the next timed set-up does
  /// not also pay for tearing it down.
  virtual void release() = 0;
  /// Threads the timed region keeps busy.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
  /// Runs the timed region on the inputs of the last setup().
  virtual RepOutcome run(bool traced) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> makePaperLoop(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> makeGridThermal(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> makeFaultCampaign(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> makeFleetServe(const Options& options);

// --- helpers shared by the workloads ---

[[nodiscard]] inline std::uint64_t nowNs() noexcept { return rltherm::obs::wallClockNs(); }
[[nodiscard]] inline double secondsSince(std::uint64_t startNs) noexcept {
  return static_cast<double>(nowNs() - startNs) / 1e9;
}

/// SplitMix64 step: derives independent input seeds from one benchmark seed.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t base, std::uint64_t salt) noexcept;

/// A scenario that runs `apps` back to back `times` times (a training input).
[[nodiscard]] rltherm::workload::Scenario repeated(
    const std::vector<rltherm::workload::AppSpec>& apps, int times);

/// Linear-interpolated quantile of `values` (copied and sorted); 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// FNV-1a(64) digest over the simulated outputs.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(double value) noexcept;
  void add(const std::string& value) noexcept;
  /// Durations, completions, reliability, energy and core traces of a run.
  void add(const rltherm::core::RunResult& result) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Correctness checks on one run: it finished, every app completed, and the
/// ground-truth temperatures stayed between ambient and the throttle limit.
void checkRun(const rltherm::core::RunResult& result, std::size_t expectedApps,
              const rltherm::platform::MachineConfig& machine, const std::string& label,
              std::vector<std::string>& problems);

/// Re-runs the run's reliability analysis outside the runner (the same
/// warm-up/cool-down trim), checks it reproduces the reported figures, and
/// returns its host time in milliseconds.
[[nodiscard]] double probeAnalyzeChip(const rltherm::core::RunResult& result,
                                      const rltherm::core::RunnerConfig& config,
                                      const std::string& label,
                                      std::vector<std::string>& problems);

/// Forwarding decorator around a thermal policy. It notes the host time of
/// the inner manager's first decision epoch after arm(), times every
/// onSample when timing is on, and can freeze the inner manager at the start
/// of a given run — the sweep engine's freeze-after-train step, which cannot
/// see through this wrapper.
class ObservedPolicy final : public rltherm::core::ThermalPolicy {
 public:
  ObservedPolicy(std::unique_ptr<rltherm::core::ThermalPolicy> inner, bool timing);

  /// Starts a first-decision measurement due at `dueNs`.
  void arm(std::uint64_t dueNs) noexcept;
  /// Freezes the inner manager when the `run`-th run (1-based) starts.
  void freezeAtRun(std::size_t run) noexcept { freezeAtRun_ = run; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Seconds samplingInterval() const override {
    return inner_->samplingInterval();
  }
  void onStart(rltherm::core::PolicyContext& ctx) override;
  void onSample(rltherm::core::PolicyContext& ctx,
                std::span<const rltherm::Celsius> sensorTemps) override;
  void onAppSwitch(rltherm::core::PolicyContext& ctx) override { inner_->onAppSwitch(ctx); }
  [[nodiscard]] bool wantsAppSwitchSignal() const override {
    return inner_->wantsAppSwitchSignal();
  }

  [[nodiscard]] rltherm::core::ThermalPolicy& inner() noexcept { return *inner_; }
  /// The ThermalManager inside (bare or supervisor-wrapped); null for
  /// static policies.
  [[nodiscard]] rltherm::core::ThermalManager* manager() const noexcept { return manager_; }

  /// Whether the armed measurement saw a decision, and its (due, decided)
  /// host times in ns.
  [[nodiscard]] bool decided() const noexcept { return firstDecisionNs_ != 0; }
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> firstDecision() const noexcept {
    return {dueNs_, firstDecisionNs_};
  }

  std::size_t sampleCalls = 0;
  std::uint64_t sampleNs = 0;
  std::vector<double> decideUs;  ///< onSample calls that closed an epoch

 private:
  std::unique_ptr<rltherm::core::ThermalPolicy> inner_;
  rltherm::core::ThermalManager* manager_ = nullptr;
  bool timing_;
  std::size_t runs_ = 0;
  std::size_t freezeAtRun_ = 0;
  std::uint64_t dueNs_ = 0;
  std::uint64_t firstDecisionNs_ = 0;
};

/// Scope aggregates of a traced region, by scope name.
using ScopeTotals = std::map<std::string, rltherm::obs::TraceCollector::ScopeStats>;

/// Adds the scope-derived and cache-derived layer values to `layers`:
/// rl.q.update, thermal.rc.step/prepare, reliability.rainflow.pass,
/// manager.epoch.aggregate and thermal.expop.hit_ratio. `runBusyS` is the
/// host time the scopes ran inside (the thermal share's base).
void addScopeLayers(const ScopeTotals& scopes, double runBusyS, LayerValues& layers);

/// Replay probes: call Machine::tick, WorkloadDriver::tick,
/// Scheduler::schedule and Machine::readSensors directly on a machine built
/// from `config`, replaying `scenario` for `ticks` ticks.
void addReplayProbes(const rltherm::platform::MachineConfig& config,
                     const rltherm::workload::Scenario& scenario, std::size_t ticks,
                     LayerValues& layers);

}  // namespace perfbench
